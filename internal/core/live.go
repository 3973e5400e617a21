// live.go — the real-clock kernel behind the acfcd daemon.
//
// The DES System in this package models a machine: disk arms, a CPU, and
// virtual time. A cache *server* needs the same kernel — the same buffer
// cache, the same ACM, the same fbehavior surface and the same per-owner
// accounting — but driven by real requests against a real block store
// (disk.Store), with no simulated costs. Live is that kernel.
//
// Concurrency contract: Live is single-threaded by design. Exactly one
// goroutine (the server's kernel loop) may call its methods; block fills
// are the only concurrent work, and they re-enter through CompleteFill on
// that same goroutine. This mirrors the paper's kernel, where the buffer
// cache is protected by the monolithic-kernel lock, and it is why the
// cache and ACM structures — written for the one-runnable-process DES —
// can be reused unchanged.
//
// Accounting parity: Read and Write mirror Proc.Access / Proc.WriteAccess
// counter for counter (ReadCalls, Hits, Misses, DemandReads, WriteBacks,
// ...), with read-ahead off and metadata modelling off. A workload
// replayed through Live therefore produces byte-identical ProcStats and
// cache.Stats to a DES run of the same access sequence — the server
// oracle test holds the two implementations to that.

package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Errors returned by Live for client mistakes. The DES kernel panics on
// these (a simulated workload that reads past EOF is a bug in the
// experiment); a server must survive them.
var (
	ErrUnknownOwner = errors.New("core: unknown or released owner")
	ErrNoControl    = errors.New("core: owner has not enabled control")
	ErrControlled   = errors.New("core: owner already controls its cache")
	ErrNotFound     = errors.New("core: no such file")
	ErrOutOfRange   = errors.New("core: block out of range")
	// ErrWriteBack wraps a store write failure during victim write-back.
	// The kernel never panics on one: the failure is counted, the block
	// leaves the cache, and the request (or release) that forced the
	// eviction carries the error back to its session.
	ErrWriteBack = errors.New("core: write-back failed")
)

// Fill is one in-flight block read — the kernel's miss-status-holding
// register. The kernel allocates it, the I/O executor
// (LiveConfig.StartFill) fills Data or Err, and hands it back to the
// kernel loop, which applies it via CompleteFill. Concurrent misses on
// the same block coalesce into one Fill through the waiter list: one
// store read regardless of fan-in.
type Fill struct {
	ID cache.BlockID
	// Data is the destination the executor reads the block into:
	// BlockSize bytes, backed by the buffer's cache slot — the store
	// read lands directly in the arena, no intermediate slice. A buffer
	// evicted mid-fill keeps its (leaked) slot, so Data stays valid for
	// the waiters either way.
	Data []byte
	Err  error // set by the executor on I/O failure

	buf      *cache.Buf
	done     bool
	prefetch bool // issued by read-ahead, no demand waiter yet
	waiters  []func(data []byte, err error)
}

// WriteBack is one dirty victim handed to the asynchronous write-behind
// queue. The kernel allocates it (Data is the victim's bytes, immutable
// from then on), the executor (LiveConfig.StartWriteBack) arranges for
// the store write and for CompleteWriteBack(wb) to re-enter the kernel
// goroutine with Err set on failure.
//
// The same record carries a removed file's discards down the same queue
// (Discard non-nil, Data nil): what the store holds of a file goes back
// behind the last write the file queued, through the one path that
// orders writes.
type WriteBack struct {
	ID    cache.BlockID
	Data  []byte
	Owner int   // owner to charge the WriteBacks counter to
	Err   error // set by the executor on store write failure

	// Discard, when non-nil, makes this a discard: every block of the
	// removed file ID.File that was ever handed to the store, ascending
	// (ID.Num is the first), for the executor to pass to disk.Discard in
	// place of the write. Older write-backs of these very blocks may
	// still be queued anywhere ahead of it, so a discard is always
	// Conflict.
	Discard []disk.BlockSpan

	// Conflict reports that an older write-back for the same block was
	// still pending when this one was enqueued — or that the file was
	// created over the name of one whose discard is still queued, which
	// on a store keyed by name is the same block — or that this is a
	// discard. The executor must not let it reach the store before
	// anything queued earlier (a reordering would persist stale bytes, or
	// discard fresh ones), however full its queue is; the kernel's
	// pending table always forwards the newest data, so queue-order
	// execution is sufficient.
	Conflict bool
	// Stalled marks a write-back the executor degraded to a synchronous
	// inline write because its queue was full (the backpressure rule).
	Stalled bool

	// slot is the victim's detached cache slot backing Data, released to
	// the slot pool by CompleteWriteBack. nil for a write-back whose
	// bytes ride a leaked mid-fill slot instead (applyWrite's detached
	// path).
	slot *cache.Slot
	name string // of a discard: the removed file's name
}

// LiveConfig configures a Live kernel.
type LiveConfig struct {
	// CacheBytes sizes the buffer cache (default 6.4 MB, as in the DES).
	CacheBytes int64
	// Alloc is the global allocation policy.
	Alloc cache.Alloc
	// Revoke configures foolish-manager revocation.
	Revoke cache.RevokeConfig
	// SharedFiles makes cached-block ownership follow use across owners.
	SharedFiles bool
	// ACMLimits caps per-manager kernel resources.
	ACMLimits acm.Limits

	// DiskBlocks lists logical disk capacities for file placement
	// (default: the paper's RZ56 + RZ26 pair).
	DiskBlocks []int

	// Store holds block contents (default: an in-memory MemStore).
	Store disk.Store

	// StartFill, when non-nil, executes demand reads asynchronously: it
	// must arrange for fl.Data (or fl.Err) to be produced and for
	// CompleteFill(fl) to then be called on the kernel goroutine. Nil
	// means fills run synchronously inline — the mode the oracle test
	// and any single-threaded embedding use.
	StartFill func(fl *Fill)

	// StartFillBatch, when non-nil alongside StartFill, receives a whole
	// read-ahead run (same file, ascending blocks) in one call, letting
	// the executor retire it as a single vectored store read. Each fill
	// in the batch carries the usual contract: produce Data or Err, then
	// CompleteFill on the kernel goroutine. Nil means runs degrade to
	// per-fill StartFill calls — semantically identical, just one store
	// op per block.
	StartFillBatch func(fls []*Fill)

	// StartWriteBack, when non-nil, executes dirty-victim write-backs
	// asynchronously: it must arrange for the store write and for
	// CompleteWriteBack(wb) to then be called on the kernel goroutine.
	// Nil means write-backs run synchronously inline at eviction — with
	// a nil hook the kernel's request/IO ordering is byte-identical to
	// the pre-write-behind kernel, which is what the oracle test pins.
	// A removed file's discards (WriteBack.Discard) take the same hook,
	// and likewise run inline when it is nil.
	StartWriteBack func(wb *WriteBack)

	// ReadAhead enables server-side sequential read-ahead: a demand read
	// that extends a per-owner sequential run prefetches the next
	// ReadAheadDepth blocks through the same fill path, so later demand
	// misses land on in-flight or completed prefetches. Off by default —
	// prefetch I/O is untraced, so deterministic replays must not see it.
	ReadAhead      bool
	ReadAheadDepth int // blocks kept in flight ahead of a run (default 2)

	// EvictOnRelease makes ReleaseOwner evict the owner's blocks
	// (writing back dirty ones) instead of disowning them in place.
	EvictOnRelease bool

	// WallClock stamps cache recency with real time instead of the
	// deterministic per-operation logical tick. The tick default keeps
	// replacement order a pure function of request order, which the
	// oracle test needs; a production daemon may prefer wall time so
	// that update-style flushing ages in seconds.
	WallClock bool

	// HitWindow sizes the windowed hit-ratio gauge: the hit ratio of the
	// last HitWindow cache accesses (reads and writes), refreshed each
	// time a window completes. The gauge feeds the per-shard
	// alloc_hit_ratio metric and the online policy adapter. Default 1024
	// accesses; the counter always runs (it is two integer adds per
	// access).
	HitWindow int
}

// DefaultHitWindow is the HitWindow applied when the config leaves it 0.
const DefaultHitWindow = 1024

// minReadAheadSweep is the smallest sequential-detector size worth
// sweeping for removed files (liveOwner.raSweepAt).
const minReadAheadSweep = 64

func (c LiveConfig) cacheBlocks() int {
	bytes := c.CacheBytes
	if bytes <= 0 {
		bytes = MB(6.4)
	}
	n := int(bytes / BlockSize)
	if n <= 0 {
		n = 1
	}
	return n
}

// ShardConfig returns the configuration for shard i of an n-way sharded
// kernel: the total block budget is partitioned evenly across the shards
// (the remainder going to the low-numbered ones, so any two shards differ
// by at most one block) and everything else is copied unchanged. Each
// shard is a complete, independent Live — its own cache arena, ACM, and
// fill accounting — which is what makes sharding safe: LRU-SP runs
// whole within each shard's replacement domain. ShardConfig(0, 1) is the
// identity, so a 1-shard kernel is bit-for-bit the unsharded one.
func (c LiveConfig) ShardConfig(i, n int) LiveConfig {
	if n <= 1 {
		return c
	}
	total := c.cacheBlocks()
	mine := total / n
	if i < total%n {
		mine++
	}
	if mine <= 0 {
		mine = 1 // cacheBlocks clamps the same way for a tiny budget
	}
	c.CacheBytes = int64(mine) * BlockSize
	return c
}

// CacheBlocks reports the kernel's block capacity.
func (l *Live) CacheBlocks() int { return l.cfg.cacheBlocks() }

// CheckShardInvariants audits a sharded kernel set built from total via
// ShardConfig: every shard's own cross-structure invariants hold, and the
// shard capacities tile the total block budget — an even partition (±1
// block) whose sum is the unsharded capacity, except when the budget is
// smaller than the shard count and every shard is clamped to one block.
func CheckShardInvariants(kerns []*Live, total LiveConfig) {
	want := total.cacheBlocks()
	sum, min, max := 0, math.MaxInt, 0
	for _, k := range kerns {
		k.CheckInvariants()
		n := k.CacheBlocks()
		sum += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		panic(fmt.Sprintf("core: unbalanced shard capacities: min %d max %d", min, max))
	}
	if want >= len(kerns) && sum != want {
		panic(fmt.Sprintf("core: shard capacities sum to %d, want %d", sum, want))
	}
}

// liveOwner is one registered owner (a client session, in the daemon).
type liveOwner struct {
	name  string
	live  bool
	mgr   *acm.Manager
	stats ProcStats
	// lastRead is the per-file sequential-run detector for read-ahead,
	// per owner exactly as the DES keeps it per process.
	lastRead map[fs.FileID]int32
	// raUntil is the highest block already scheduled for read-ahead on
	// each sequential run: the leading edge of the prefetch window. The
	// window refills half-a-depth at a time so prefetches arrive as
	// multi-block runs the batch executor can vector, instead of the
	// one-block top-ups a per-read scheme degenerates to.
	raUntil map[fs.FileID]int32
	// raSweepAt is the size at which lastRead is next swept of removed
	// files (noteSequential), twice what the last sweep left: the detector
	// holds the files that exist, not every file the session ever read.
	raSweepAt int
}

// Live is the real-clock kernel: one buffer cache plus ACM, a file
// system namespace, and a block store, driven by explicit requests. Not
// safe for concurrent use — see the package comment's concurrency
// contract.
type Live struct {
	cfg   LiveConfig
	store disk.Store
	fsys  *fs.FileSystem
	bc    *cache.Cache
	ctl   *acm.ACM

	tick  sim.Time // logical clock: one tick per kernel operation
	epoch time.Time

	owners []*liveOwner
	// Block contents live in the cache's refcounted data slots
	// (cache.Config.SlotBytes = BlockSize): every cached buffer owns a
	// slot, dirty victims detach theirs for the write-back, and the
	// server pins slots to serve responses zero-copy. See cache/slot.go.
	//
	// mshr is the miss-status-holding-register table: the in-flight fill
	// per block. Concurrent requests for a mid-fill block join its
	// waiter list instead of issuing another store read. A buffer
	// evicted mid-fill detaches its entry (the fill stays in the
	// executor's hands — ValidAt remains IOPending, the same leak-to-GC
	// rule the DES uses — and completes into waiters only); a fresh miss
	// on that block starts a fresh fill, so a fill never outlives the
	// write-back ordering of its bytes.
	mshr map[cache.BlockID]*Fill
	// pendingWB is the newest queued-but-unwritten write-back per block.
	// A fill for a block found here copies the bytes instead of reading
	// the store — the queue holds fresher data than the store until the
	// flusher lands it.
	pendingWB map[cache.BlockID]*WriteBack
	// prefetched marks blocks brought in by read-ahead and not yet
	// touched by a demand access, for the PrefetchHits counter.
	prefetched map[cache.BlockID]bool
	// persisted is, per file, the set of blocks handed to the store on
	// any path (write-behind, the inline write-back, FlushDirty, a
	// detached write-through): what Remove has to take back. One bit a
	// block, dropped with the file.
	persisted map[fs.FileID]blockSet
	// discarding is the newest discard still in the executor's hands per
	// file name, and shadowed the files created over such a name, each
	// with the discard it waits for. File ids are never reused but names
	// are, and a store may be keyed by name (the cluster's origin): until
	// the discard lands, the new file's write-backs queue behind it
	// (WriteBack.Conflict) and a fill of a block it has not written is
	// zeros without asking the store, which still has the dead file's.
	discarding map[string]*WriteBack
	shadowed   map[fs.FileID]*WriteBack

	fill          stats.FillStats
	wbOutstanding int64 // write-backs enqueued, not yet completed

	// Windowed hit-ratio gauge (see LiveConfig.HitWindow): winHits and
	// winAccesses accumulate the current window; when winAccesses reaches
	// the window size, the completed window's ratio is latched into
	// lastWindowBP (basis points) and the counters reset. windowsDone
	// lets the policy adapter detect window boundaries without its own
	// counting.
	winHits      int64
	winAccesses  int64
	lastWindowBP int64
	windowsDone  int64
}

// NewLive builds a Live kernel.
func NewLive(cfg LiveConfig) *Live {
	if cfg.Store == nil {
		cfg.Store = disk.NewMemStore()
	}
	if len(cfg.DiskBlocks) == 0 {
		cfg.DiskBlocks = []int{disk.RZ56.Blocks(), disk.RZ26.Blocks()}
	}
	l := &Live{
		cfg:        cfg,
		store:      cfg.Store,
		fsys:       fs.New(fs.Config{DiskBlocks: cfg.DiskBlocks}),
		epoch:      time.Now(),
		mshr:       make(map[cache.BlockID]*Fill),
		pendingWB:  make(map[cache.BlockID]*WriteBack),
		prefetched: make(map[cache.BlockID]bool),
		persisted:  make(map[fs.FileID]blockSet),
		discarding: make(map[string]*WriteBack),
		shadowed:   make(map[fs.FileID]*WriteBack),
	}
	l.ctl = acm.New(l.Now, cfg.ACMLimits)
	l.bc = cache.New(cache.Config{
		Capacity:       cfg.cacheBlocks(),
		Alloc:          cfg.Alloc,
		Revoke:         cfg.Revoke,
		SharedTransfer: cfg.SharedFiles,
		SlotBytes:      BlockSize,
	}, l.ctl)
	return l
}

// Now returns the kernel clock: wall microseconds since start, or the
// logical tick.
func (l *Live) Now() sim.Time {
	if l.cfg.WallClock {
		return sim.Time(time.Since(l.epoch) / time.Microsecond)
	}
	return l.tick
}

func (l *Live) advance() sim.Time {
	if !l.cfg.WallClock {
		l.tick++
	}
	return l.Now()
}

// FS exposes the file system namespace.
func (l *Live) FS() *fs.FileSystem { return l.fsys }

// Cache exposes the buffer cache (read-only introspection).
func (l *Live) Cache() *cache.Cache { return l.bc }

// Store exposes the block store, for the fill executor.
func (l *Live) Store() disk.Store { return l.store }

// PendingFills reports the number of in-flight block reads (demand and
// prefetch).
func (l *Live) PendingFills() int { return len(l.mshr) }

// PendingWriteBacks reports the number of write-backs handed to the
// asynchronous executor and not yet completed.
func (l *Live) PendingWriteBacks() int { return int(l.wbOutstanding) }

// Snapshot captures the kernel counters. Live has no DES engine, so the
// Sim block stays zero; Fill carries the miss/write-back pipeline.
func (l *Live) Snapshot() stats.Snapshot {
	return stats.Snapshot{Cache: l.bc.Stats(), Fill: l.fill}
}

// --- owner lifecycle ---

// AddOwner registers a new owner (one per client session) and returns
// its id. Ids are never reused: per-owner revocation history must not
// leak from a dead session to a new one.
func (l *Live) AddOwner(name string) int {
	id := len(l.owners)
	l.owners = append(l.owners, &liveOwner{name: name, live: true})
	return id
}

func (l *Live) owner(id int) (*liveOwner, error) {
	if id < 0 || id >= len(l.owners) || !l.owners[id].live {
		return nil, ErrUnknownOwner
	}
	return l.owners[id], nil
}

// OwnerStats snapshots an owner's counters (also valid after release).
func (l *Live) OwnerStats(id int) (ProcStats, error) {
	if id < 0 || id >= len(l.owners) {
		return ProcStats{}, ErrUnknownOwner
	}
	return l.owners[id].stats, nil
}

// ReleaseOwner ends an owner's session: its manager (if any) is
// destroyed, and its blocks are either evicted (dirty ones written back)
// or disowned in place, per LiveConfig.EvictOnRelease. This is the
// revoked-owner path of the cache exercised as a production operation —
// every client disconnect runs it. Returns the owner's final counters.
func (l *Live) ReleaseOwner(id int) (ProcStats, error) {
	o, err := l.owner(id)
	if err != nil {
		return ProcStats{}, err
	}
	if o.mgr != nil {
		l.ctl.DestroyManager(id)
		o.mgr = nil
	}
	if l.cfg.EvictOnRelease {
		var firstErr error
		l.bc.EvictOwner(id, func(v cache.Victim) {
			if werr := l.flushVictim(&v); werr != nil && firstErr == nil {
				firstErr = werr
			}
		})
		err = firstErr
	} else {
		l.bc.DisownOwner(id)
	}
	o.live = false
	o.lastRead, o.raUntil = nil, nil // ids are never reused: a dead session's run state is garbage
	return o.stats, err
}

func (l *Live) charge(owner int, f func(*ProcStats)) {
	if owner >= 0 && owner < len(l.owners) {
		f(&l.owners[owner].stats)
	}
}

// --- file management ---

// Create creates a file on disk d, initially sizeBlocks long.
func (l *Live) Create(owner int, name string, d, sizeBlocks int) (*fs.File, error) {
	if _, err := l.owner(owner); err != nil {
		return nil, err
	}
	if d < 0 || d >= l.fsys.Disks() {
		return nil, fmt.Errorf("core: no disk %d", d)
	}
	f, err := l.fsys.Create(name, d, sizeBlocks)
	if err != nil {
		return nil, err
	}
	if wb := l.discarding[name]; wb != nil {
		l.shadowed[f.ID()] = wb
	}
	return f, nil
}

// Open resolves a file by name and counts the open.
func (l *Live) Open(owner int, name string) (*fs.File, error) {
	o, err := l.owner(owner)
	if err != nil {
		return nil, err
	}
	f, ok := l.fsys.Lookup(name)
	if !ok {
		return nil, ErrNotFound
	}
	o.stats.Opens++
	return f, nil
}

// Remove unlinks a file; its cached blocks (dirty or not) are discarded
// without I/O, as for an unlinked temporary file, and the blocks it has
// on the store are given back: every one it ever handed over becomes a
// discard, queued behind the file's last write-back (or run inline when
// there is no write-behind executor). A file that persisted nothing
// costs no store call.
func (l *Live) Remove(owner int, name string) error {
	if _, err := l.owner(owner); err != nil {
		return err
	}
	f, ok := l.fsys.Lookup(name)
	if !ok {
		return ErrNotFound
	}
	fid := f.ID()
	l.bc.InvalidateFile(fid)
	for id := range l.prefetched {
		if id.File == fid {
			delete(l.prefetched, id)
		}
	}
	l.ctl.FileGone(fid)
	if err := l.fsys.Remove(name); err != nil {
		return err
	}
	specs := l.persisted[fid].spans(fid)
	delete(l.persisted, fid)
	delete(l.shadowed, fid)
	if len(specs) == 0 {
		return nil
	}
	wb := &WriteBack{
		ID:       cache.BlockID{File: fid, Num: specs[0].Blk},
		Owner:    cache.NoOwner,
		Discard:  specs,
		Conflict: true,
		name:     name,
	}
	if swb := l.cfg.StartWriteBack; swb != nil {
		l.discarding[name] = wb
		swb(wb)
		return nil
	}
	wb.Err = disk.Discard(l.store, specs)
	l.CompleteWriteBack(wb)
	return nil
}

// blockSet is a set of block numbers of one file, a bit each.
type blockSet []uint64

// spans lists the set's blocks, ascending, as blocks of file.
func (s blockSet) spans(file fs.FileID) []disk.BlockSpan {
	var out []disk.BlockSpan
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, disk.BlockSpan{File: int32(file), Blk: int32(w<<6 + bits.TrailingZeros64(word))})
		}
	}
	return out
}

// notePersisted records that id is about to be handed to the store.
func (l *Live) notePersisted(id cache.BlockID) {
	s, w := l.persisted[id.File], int(id.Num>>6)
	if w >= len(s) {
		s = append(s, make(blockSet, w+1-len(s))...)
		l.persisted[id.File] = s
	}
	s[w] |= 1 << (id.Num & 63)
}

// --- the read/write surface ---

// ReadReply receives a completed Read. The server's hot path implements
// it with pooled descriptors so that a cache hit allocates nothing (a
// func-typed callback parameter would escape — and so heap-allocate a
// closure — at every call site, because the miss path stores it in the
// fill's waiter list). Read is the func-based convenience wrapper.
type ReadReply interface {
	// ReadDone receives the whole block's bytes (the receiver slices
	// [off, off+size)), whether the access hit, and any I/O error. It
	// runs on the kernel goroutine — inline for hits and synchronous
	// fills, later for asynchronous ones.
	ReadDone(data []byte, hit bool, err error)
}

// funcReply adapts a plain callback to ReadReply. Func values are
// pointer-shaped, so the interface conversion does not allocate.
type funcReply func(data []byte, hit bool, err error)

func (f funcReply) ReadDone(data []byte, hit bool, err error) { f(data, hit, err) }

// Read is ReadTo with a func callback; see ReadTo.
func (l *Live) Read(owner int, fid fs.FileID, blk int32, off, size int, done func(data []byte, hit bool, err error)) bool {
	return l.ReadTo(owner, fid, blk, off, size, funcReply(done))
}

// ReadTo reads size bytes at offset off within block blk, delivering the
// result through reply. The returned bool reports whether ReadDone
// already ran (false: an asynchronous fill will run it later, on the
// kernel goroutine).
//
// The counter updates replicate Proc.Access exactly (with read-ahead
// off): ReadCalls, then Hits, or Misses + DemandReads with the insert
// protocol between them.
func (l *Live) ReadTo(owner int, fid fs.FileID, blk int32, off, size int, reply ReadReply) bool {
	o, err := l.owner(owner)
	if err != nil {
		reply.ReadDone(nil, false, err)
		return true
	}
	f, ok := l.fsys.ByID(fid)
	if !ok || f.Removed() {
		reply.ReadDone(nil, false, ErrNotFound)
		return true
	}
	if blk < 0 || int(blk) >= f.Size() || off < 0 || size < 0 || off+size > BlockSize {
		reply.ReadDone(nil, false, ErrOutOfRange)
		return true
	}
	o.stats.ReadCalls++
	now := l.advance()
	id := cache.BlockID{File: fid, Num: blk}
	if b := l.bc.LookupBy(id, owner, off, size); b != nil {
		o.stats.Hits++
		l.noteAccess(true)
		l.notePrefetchHit(id)
		if b.Busy(now) {
			// Fill still in flight: coalesce onto it, as waitValid would.
			if fl := l.mshr[id]; fl != nil && fl.buf == b {
				l.fill.CoalescedMisses++
				l.addWaiter(fl, func(data []byte, err error) { reply.ReadDone(data, true, err) })
				l.noteSequential(owner, f, blk, now)
				return false
			}
		}
		reply.ReadDone(b.Slot.Data(), true, nil)
		l.noteSequential(owner, f, blk, now)
		return true
	}
	o.stats.Misses++
	l.noteAccess(false)
	buf, victim := l.bc.Insert(id, owner, now)
	werr := l.flushVictim(victim)
	buf.Referenced = true
	o.stats.DemandReads++
	fl := l.newFill(buf)
	l.addWaiter(fl, func(data []byte, err error) {
		if err == nil {
			err = werr // the eviction this miss forced lost data
		}
		reply.ReadDone(data, false, err)
	})
	l.dispatchFill(fl)
	l.noteSequential(owner, f, blk, now)
	return fl.done
}

// Write writes payload at offset off within block blk, growing the file
// as needed. Whole-block writes (off 0, full payload) never read; a
// partial write to an uncached, pre-existing block is a read-modify-
// write. done reports hit and error as for Read.
//
// Counter updates replicate Proc.WriteAccess / Proc.Write exactly.
func (l *Live) Write(owner int, fid fs.FileID, blk int32, off int, payload []byte, done func(hit bool, err error)) bool {
	o, err := l.owner(owner)
	if err != nil {
		done(false, err)
		return true
	}
	f, ok := l.fsys.ByID(fid)
	if !ok || f.Removed() {
		done(false, ErrNotFound)
		return true
	}
	if blk < 0 || off < 0 || off+len(payload) > BlockSize || len(payload) == 0 {
		done(false, ErrOutOfRange)
		return true
	}
	o.stats.WriteCalls++
	whole := off == 0 && len(payload) == BlockSize
	grew := false
	if int(blk) >= f.Size() {
		if err := l.fsys.Grow(f, int(blk)+1); err != nil {
			done(false, err)
			return true
		}
		grew = true
	}
	now := l.advance()
	id := cache.BlockID{File: fid, Num: blk}
	b := l.bc.LookupBy(id, owner, off, len(payload))
	if b != nil {
		o.stats.Hits++
		l.noteAccess(true)
		l.notePrefetchHit(id)
		if b.Busy(now) {
			if fl := l.mshr[id]; fl != nil && fl.buf == b {
				l.fill.CoalescedMisses++
				l.addWaiter(fl, func(data []byte, err error) {
					done(true, l.applyWrite(b, fl, off, payload, err))
				})
				return false
			}
		}
		copy(l.exclusiveData(b)[off:], payload)
		l.bc.MarkDirty(b, l.Now())
		done(true, nil)
		return true
	}
	o.stats.Misses++
	l.noteAccess(false)
	b, victim := l.bc.Insert(id, owner, now)
	werr := l.flushVictim(victim)
	b.Referenced = true
	if !whole && !grew {
		// Read-modify-write: fetch the rest of the block first.
		o.stats.DemandReads++
		fl := l.newFill(b)
		l.addWaiter(fl, func(data []byte, err error) {
			if err == nil {
				err = werr
			}
			done(false, l.applyWrite(b, fl, off, payload, err))
		})
		l.dispatchFill(fl)
		return fl.done
	}
	data := b.Slot.Data()
	if !whole {
		// A grown block's unwritten bytes read as zeros; the recycled
		// slot may hold stale ones.
		clear(data)
	}
	copy(data[off:], payload)
	l.bc.MarkDirty(b, l.Now())
	done(false, werr)
	return true
}

// exclusiveData returns b's bytes writable on the kernel goroutine: if
// the block's slot is pinned by in-flight response frames the block
// moves to a fresh copy first (the frames keep reading the bytes they
// were served), counted as the zero-copy path's fallback.
func (l *Live) exclusiveData(b *cache.Buf) []byte {
	data, cowed := l.bc.ExclusiveData(b)
	if cowed {
		l.fill.WireCopyFallbacks++
	}
	return data
}

// CountWireFallback records a serve-path copy the server had to take (a
// response whose buffer was evicted mid-fill is served from the detached
// bytes). Kernel goroutine only.
func (l *Live) CountWireFallback() { l.fill.WireCopyFallbacks++ }

// CountFillBatch records one multi-block store read issued by the fill
// executor: a run of blocks fills retired as one vectored call. Kernel
// goroutine only.
func (l *Live) CountFillBatch(blocks int) {
	l.fill.BatchedFills++
	l.fill.FillBatchBlocks += int64(blocks)
}

// CountWritebackBatches records n multi-block runs the write-behind
// flusher retired with vectored store writes. Kernel goroutine only.
func (l *Live) CountWritebackBatches(n int) {
	l.fill.WritebackBatches += int64(n)
}

// NoteFillQueueDepth tracks the fill queue's high-water mark: how far
// the bounded worker pool fell behind the miss stream. Kernel goroutine
// only.
func (l *Live) NoteFillQueueDepth(depth int) {
	if int64(depth) > l.fill.FillQueueHighWater {
		l.fill.FillQueueHighWater = int64(depth)
	}
}

// applyWrite lands a write that was waiting on a fill. When the buffer
// survived, the payload goes into the block's *current* slot (which
// exclusiveData may just have moved off a pinned one — never into
// fl.Data, whose slot could be the frozen pre-write copy); if the buffer
// was evicted mid-fill the bytes write through via the write-back path —
// never the store directly, so a queued write-behind of the same block
// cannot land after (and clobber) this fresher data. If the buffer went
// because the file did, the write goes where the file's dirty blocks
// went: Remove has queued the file's discards, and a block written
// behind them would stay on the store for ever.
func (l *Live) applyWrite(b *cache.Buf, fl *Fill, off int, payload []byte, err error) error {
	if err != nil {
		return err
	}
	if l.bc.Peek(fl.ID) == b {
		copy(l.exclusiveData(b)[off:], payload)
		l.bc.MarkDirty(b, l.Now())
		return nil
	}
	if _, ok := l.fsys.ByID(fl.ID.File); !ok {
		return nil
	}
	copy(fl.Data[off:], payload)
	return l.writeBack(fl.ID, nil, fl.Data, cache.NoOwner)
}

// --- the fill pipeline: MSHR, write-behind, read-ahead ---

func (l *Live) newFill(buf *cache.Buf) *Fill {
	buf.ValidAt = ioPending
	fl := &Fill{ID: buf.ID, Data: buf.Slot.Data(), buf: buf}
	l.mshr[buf.ID] = fl
	return fl
}

func (l *Live) addWaiter(fl *Fill, fn func(data []byte, err error)) {
	if fl.done {
		fn(l.fillData(fl), fl.Err)
		return
	}
	fl.waiters = append(fl.waiters, fn)
}

// fillData returns the bytes a fill's waiter should see: the block's
// current slot while the buffer is still cached — a coalesced write
// ahead in the waiter list may have copy-on-written the block off the
// slot the fill landed in — or the fill's own (detached) bytes.
func (l *Live) fillData(fl *Fill) []byte {
	if b := fl.buf; b != nil && b.Slot != nil && l.bc.Peek(fl.ID) == b {
		return b.Slot.Data()
	}
	return fl.Data
}

// stageFill resolves a fill that needs no store I/O. A block whose
// newest bytes are still sitting in the write-behind queue is served
// straight from that buffer — the store's copy is stale until the
// flusher lands it, and the copy costs no I/O at all. A block with
// nothing queued, of a file whose name still has a discard queued
// (Live.shadowed), has never been written by this file — its write-backs
// are all behind that discard — so it is zeros, and the store is not
// asked. Returns false when the fill was completed in place, true when it
// still needs a store read.
func (l *Live) stageFill(fl *Fill) bool {
	if wb := l.pendingWB[fl.ID]; wb != nil {
		copy(fl.Data, wb.Data)
		l.fill.WritebackHits++
		l.CompleteFill(fl)
		return false
	}
	if l.shadowed[fl.ID.File] != nil {
		clear(fl.Data)
		l.CompleteFill(fl)
		return false
	}
	return true
}

// dispatchFill starts a fill's I/O.
func (l *Live) dispatchFill(fl *Fill) {
	if !l.stageFill(fl) {
		return
	}
	l.fill.StoreReads++
	if sf := l.cfg.StartFill; sf != nil {
		sf(fl)
		return
	}
	fl.Err = l.store.ReadBlock(int32(fl.ID.File), fl.ID.Num, fl.Data)
	l.CompleteFill(fl)
}

// dispatchFillRun starts a read-ahead run's I/O: stage each fill (the
// write-behind forward can satisfy some in place), then hand the rest
// to the batch executor in one call so a K-block run costs one vectored
// read instead of K. StoreReads counts blocks, not calls, so the
// counter stays comparable across executors; the call shape shows up in
// BatchedFills/FillBatchBlocks instead. Without a batch executor the
// run degrades to per-fill dispatch.
func (l *Live) dispatchFillRun(fls []*Fill) {
	sfb := l.cfg.StartFillBatch
	if sfb == nil || l.cfg.StartFill == nil {
		for _, fl := range fls {
			l.dispatchFill(fl)
		}
		return
	}
	run := fls[:0]
	for _, fl := range fls {
		if l.stageFill(fl) {
			run = append(run, fl)
		}
	}
	if len(run) == 0 {
		return
	}
	l.fill.StoreReads += int64(len(run))
	sfb(run)
}

// CompleteFill applies a finished block read: install the bytes (or
// drop the buffer, on error), then run every waiter. Must be called on
// the kernel goroutine. A buffer evicted while its fill was in flight is
// not re-installed — its waiters still get the bytes, and the buffer
// stays IOPending, exactly the leak-to-GC discipline of the DES. The
// MSHR entry is removed only if it is still this fill's: a fresh miss
// after a mid-fill eviction owns the slot now.
func (l *Live) CompleteFill(fl *Fill) {
	if l.mshr[fl.ID] == fl {
		delete(l.mshr, fl.ID)
	}
	if l.bc.Peek(fl.ID) == fl.buf {
		if fl.Err != nil {
			l.bc.Drop(fl.buf)
			delete(l.prefetched, fl.ID)
		} else {
			fl.buf.ValidAt = 0
		}
	}
	fl.done = true
	ws := fl.waiters
	fl.waiters = nil
	for _, w := range ws {
		w(l.fillData(fl), fl.Err)
	}
}

// flushVictim hands an evicted dirty block to the write-back path. The
// victim carries a detached slot exactly when it was dirty with valid
// bytes; writeBack releases the slot once the bytes are safe.
func (l *Live) flushVictim(v *cache.Victim) error {
	if v == nil {
		return nil
	}
	delete(l.prefetched, v.ID)
	if v.Slot == nil {
		return nil
	}
	return l.writeBack(v.ID, v.Slot, v.Slot.Data(), v.Owner)
}

// writeBack persists one evicted block's bytes. With a StartWriteBack
// executor the write is asynchronous: the kernel records the newest
// pending bytes per block (dispatchFill forwards from them) and the
// executor re-enters through CompleteWriteBack. Without one the write
// runs inline, and a failure is surfaced — counted, wrapped in
// ErrWriteBack, never a panic — to the request that forced the eviction.
func (l *Live) writeBack(id cache.BlockID, sl *cache.Slot, data []byte, owner int) error {
	l.notePersisted(id)
	if swb := l.cfg.StartWriteBack; swb != nil {
		wb := &WriteBack{ID: id, Data: data, Owner: owner, slot: sl}
		_, wb.Conflict = l.pendingWB[id]
		if l.shadowed[id.File] != nil {
			wb.Conflict = true
		}
		l.pendingWB[id] = wb
		l.wbOutstanding++
		l.fill.WritebacksQueued++
		if l.wbOutstanding > l.fill.WritebackQueueHighWater {
			l.fill.WritebackQueueHighWater = l.wbOutstanding
		}
		swb(wb)
		return nil
	}
	err := l.store.WriteBlock(int32(id.File), id.Num, data)
	if sl != nil {
		l.bc.ReleaseSlot(sl)
	}
	if err != nil {
		l.fill.WritebackErrors++
		return fmt.Errorf("%w: block %v: %v", ErrWriteBack, id, err)
	}
	l.charge(owner, func(st *ProcStats) { st.WriteBacks++ })
	return nil
}

// CompleteWriteBack applies a finished asynchronous write-back. Must be
// called on the kernel goroutine. The pending entry is removed only if
// it is still this write-back's: a newer eviction of the same block owns
// the forwarding slot (and the executor's queue order guarantees its
// bytes reach the store last).
//
// A finished discard moves none of the write-back counters: it lets the
// file that took the name (if one did) out of the discard's shadow and
// counts the blocks given back.
func (l *Live) CompleteWriteBack(wb *WriteBack) {
	if wb.Discard != nil {
		if l.discarding[wb.name] == wb {
			delete(l.discarding, wb.name)
			if f, ok := l.fsys.Lookup(wb.name); ok && l.shadowed[f.ID()] == wb {
				delete(l.shadowed, f.ID())
			}
		}
		if wb.Err != nil {
			l.fill.WritebackErrors++
			return
		}
		l.fill.DiscardedBlocks += int64(len(wb.Discard))
		return
	}
	if l.pendingWB[wb.ID] == wb {
		delete(l.pendingWB, wb.ID)
	}
	if wb.slot != nil {
		l.bc.ReleaseSlot(wb.slot)
		wb.slot = nil
	}
	l.wbOutstanding--
	if wb.Stalled {
		l.fill.WritebackStalls++
	}
	if wb.Err != nil {
		l.fill.WritebackErrors++
		return
	}
	l.charge(wb.Owner, func(st *ProcStats) { st.WriteBacks++ })
}

// notePrefetchHit counts the first demand touch of a prefetched block.
func (l *Live) notePrefetchHit(id cache.BlockID) {
	if l.prefetched[id] {
		delete(l.prefetched, id)
		l.fill.PrefetchHits++
	}
}

// noteSequential updates the per-owner sequential detector and issues
// read-ahead once two consecutive blocks have been read, keeping up to
// ReadAheadDepth blocks in flight — the same detection rule as the DES
// kernel's noteSequential and internal/disk's track-buffer model (a
// request extending the previous address streams; anything else seeks).
// Prefetch fills go through the MSHR like any other, so a demand miss
// that catches up simply coalesces onto the in-flight prefetch.
//
// Scheduling is windowed: the window [blk+1, raUntil] refills only when
// the reader has consumed it to within half the depth, and a refill
// extends it back out to blk+depth in one go. At depth 2 that is
// exactly the old one-block top-up; at depth K the steady state issues
// a K/2-block run every K/2 reads, which dispatchFillRun hands to the
// batch executor as one vectored store read.
func (l *Live) noteSequential(owner int, f *fs.File, blk int32, now sim.Time) {
	if !l.cfg.ReadAhead {
		return
	}
	o := l.owners[owner]
	if o.lastRead == nil {
		o.lastRead = make(map[fs.FileID]int32)
		o.raUntil = make(map[fs.FileID]int32)
	}
	if len(o.lastRead) >= o.raSweepAt {
		// Forget the files that have been removed since the detector was
		// last this big; it may then grow to twice what is left.
		for fid := range o.lastRead {
			if _, ok := l.fsys.ByID(fid); !ok {
				delete(o.lastRead, fid)
				delete(o.raUntil, fid)
			}
		}
		o.raSweepAt = max(2*len(o.lastRead), minReadAheadSweep)
	}
	last, seen := o.lastRead[f.ID()]
	o.lastRead[f.ID()] = blk
	if !seen || blk != last+1 {
		// Run broken (or just starting): forget the old window so a
		// re-scan of evicted blocks prefetches again from scratch.
		delete(o.raUntil, f.ID())
		return
	}
	depth := l.cfg.ReadAheadDepth
	if depth <= 0 {
		depth = 2
	}
	until, ok := o.raUntil[f.ID()]
	if !ok || until < blk {
		until = blk
	}
	if int(until)-int(blk) > depth/2 {
		return // window still more than half full
	}
	target := blk + int32(depth)
	if max := int32(f.Size()) - 1; target > max {
		target = max
	}
	if target <= until {
		return
	}
	run := make([]*Fill, 0, target-until)
	for next := until + 1; next <= target; next++ {
		id := cache.BlockID{File: f.ID(), Num: next}
		if l.bc.Peek(id) != nil {
			continue
		}
		if l.mshr[id] != nil {
			// A detached fill (mid-fill eviction) is still in flight;
			// starting another read for the block would race it.
			continue
		}
		buf, victim := l.bc.Insert(id, owner, now)
		l.flushVictim(victim) // a prefetch has no requester to hand an error
		fl := l.newFill(buf)
		fl.prefetch = true
		l.prefetched[id] = true
		o.stats.Prefetches++
		l.fill.PrefetchIssued++
		run = append(run, fl)
	}
	o.raUntil[f.ID()] = target
	if len(run) > 0 {
		l.dispatchFillRun(run)
	}
}

// FlushDirty writes back every dirty block older than cutoff (pass
// MaxTime for all), the update-daemon analogue. Writes run synchronously
// — callers flush at quiesce points (shutdown, after the write-behind
// queue has drained). Returns blocks written and the first store error;
// later blocks are still attempted so one bad write cannot strand the
// rest dirty.
func (l *Live) FlushDirty(cutoff sim.Time) (int, error) {
	n := 0
	var firstErr error
	for _, b := range l.bc.DirtyOlderThan(cutoff) {
		if b.Slot == nil {
			l.bc.Clean(b)
			continue
		}
		// Reading the slot for the store write is safe against pinned
		// in-flight frames (reads both); the kernel goroutine is the only
		// writer.
		l.notePersisted(b.ID)
		if err := l.store.WriteBlock(int32(b.ID.File), b.ID.Num, b.Slot.Data()); err != nil {
			l.fill.WritebackErrors++
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: block %v: %v", ErrWriteBack, b.ID, err)
			}
			continue
		}
		l.bc.Clean(b)
		l.charge(b.Owner, func(st *ProcStats) { st.WriteBacks++ })
		n++
	}
	return n, firstErr
}

// MaxTime is a cutoff that matches every dirty block.
const MaxTime = sim.Time(math.MaxInt64)

// Close flushes all dirty blocks and closes the store. Any asynchronous
// write-backs must have drained first (the server's shutdown barrier).
func (l *Live) Close() error {
	_, err := l.FlushDirty(MaxTime)
	if cerr := l.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- the fbehavior surface ---

// EnableControl registers owner as a cache manager.
func (l *Live) EnableControl(owner int) error {
	o, err := l.owner(owner)
	if err != nil {
		return err
	}
	if o.mgr != nil {
		return ErrControlled
	}
	m, err := l.ctl.CreateManager(owner)
	if err != nil {
		return err
	}
	o.mgr = m
	o.stats.FbehaviorCalls++
	return nil
}

// DisableControl withdraws cache control. No-op when not controlling.
func (l *Live) DisableControl(owner int) error {
	o, err := l.owner(owner)
	if err != nil {
		return err
	}
	if o.mgr == nil {
		return nil
	}
	l.ctl.DestroyManager(owner)
	o.mgr = nil
	o.stats.FbehaviorCalls++
	return nil
}

// Controlled reports whether owner manages its cache.
func (l *Live) Controlled(owner int) bool {
	o, err := l.owner(owner)
	return err == nil && o.mgr != nil
}

func (l *Live) mgr(owner int) (*liveOwner, *acm.Manager, error) {
	o, err := l.owner(owner)
	if err != nil {
		return nil, nil, err
	}
	if o.mgr == nil {
		return nil, nil, ErrNoControl
	}
	o.stats.FbehaviorCalls++
	return o, o.mgr, nil
}

// noteAccess feeds the windowed hit-ratio gauge; called once per cache
// read or write on the kernel goroutine.
func (l *Live) noteAccess(hit bool) {
	l.winAccesses++
	if hit {
		l.winHits++
	}
	window := int64(l.cfg.HitWindow)
	if window <= 0 {
		window = DefaultHitWindow
	}
	if l.winAccesses >= window {
		l.lastWindowBP = 10000 * l.winHits / l.winAccesses
		l.winHits, l.winAccesses = 0, 0
		l.windowsDone++
	}
}

// HitRatioWindowBP returns the hit ratio of the last completed access
// window in basis points (0..10000), or of the partial current window
// before the first completes.
func (l *Live) HitRatioWindowBP() int64 {
	if l.windowsDone == 0 && l.winAccesses > 0 {
		return 10000 * l.winHits / l.winAccesses
	}
	return l.lastWindowBP
}

// HitWindowsDone returns how many access windows have completed; the
// policy adapter uses it to pace its evaluations.
func (l *Live) HitWindowsDone() int64 { return l.windowsDone }

// SetAllocPolicy hot-swaps the kernel's allocation policy by name; see
// cache.SetAlloc for the migrate-in-place contract. Kernel goroutine
// only.
func (l *Live) SetAllocPolicy(name cache.Alloc) error {
	if err := l.bc.SetAlloc(name); err != nil {
		return err
	}
	// A fresh policy deserves a fresh evaluation window: a half-window
	// measured across the swap would charge the new policy for the old
	// one's misses.
	l.winHits, l.winAccesses = 0, 0
	return nil
}

// AllocPolicy returns the name of the allocation policy in force.
func (l *Live) AllocPolicy() cache.Alloc { return l.bc.Alloc() }

// SetPriority sets the long-term cache priority of a file.
func (l *Live) SetPriority(owner int, fid fs.FileID, prio int) error {
	_, m, err := l.mgr(owner)
	if err != nil {
		return err
	}
	return m.SetPriority(fid, prio)
}

// GetPriority reads the long-term cache priority of a file.
func (l *Live) GetPriority(owner int, fid fs.FileID) (int, error) {
	_, m, err := l.mgr(owner)
	if err != nil {
		return 0, err
	}
	return m.Priority(fid), nil
}

// SetPolicy sets the replacement policy of a priority level.
func (l *Live) SetPolicy(owner int, prio int, pol acm.Policy) error {
	_, m, err := l.mgr(owner)
	if err != nil {
		return err
	}
	return m.SetPolicy(prio, pol)
}

// GetPolicy reads the replacement policy of a priority level.
func (l *Live) GetPolicy(owner int, prio int) (acm.Policy, error) {
	_, m, err := l.mgr(owner)
	if err != nil {
		return 0, err
	}
	return m.PolicyOf(prio), nil
}

// SetTempPri assigns a temporary priority to cached blocks of a file.
func (l *Live) SetTempPri(owner int, fid fs.FileID, startBlk, endBlk int32, prio int) error {
	_, m, err := l.mgr(owner)
	if err != nil {
		return err
	}
	return m.SetTempPri(l.bc, fid, startBlk, endBlk, prio)
}

// --- invariants ---

// CheckInvariants panics unless the kernel's cross-structure invariants
// hold: the cache and ACM are self-consistent, every valid cached block
// has bytes (and vice versa), every busy cached buffer has an in-flight
// fill, and no cached block belongs to a released owner.
func (l *Live) CheckInvariants() {
	l.bc.CheckInvariants()
	l.ctl.CheckInvariants()
	now := l.Now()
	for _, id := range l.bc.GlobalOrder() {
		b := l.bc.Peek(id)
		if b == nil {
			panic(fmt.Sprintf("core: GlobalOrder lists %v but Peek misses", id))
		}
		if b.Busy(now) {
			if fl := l.mshr[id]; fl == nil || fl.buf != b {
				panic(fmt.Sprintf("core: cached busy block %v has no MSHR entry", id))
			}
		} else if b.Slot == nil {
			panic(fmt.Sprintf("core: cached valid block %v has no data slot", id))
		}
		if b.Owner != cache.NoOwner {
			if b.Owner < 0 || b.Owner >= len(l.owners) || !l.owners[b.Owner].live {
				panic(fmt.Sprintf("core: cached block %v owned by released owner %d", id, b.Owner))
			}
		}
	}
	for id, fl := range l.mshr {
		if id != fl.ID {
			panic(fmt.Sprintf("core: MSHR entry for %v holds fill for %v", id, fl.ID))
		}
		if l.bc.Peek(fl.ID) == fl.buf {
			if !fl.buf.Busy(now) {
				panic(fmt.Sprintf("core: cached block %v has a fill but is not busy", fl.ID))
			}
			if fl.buf.Slot == nil || !fl.buf.Slot.Backs(fl.Data) {
				panic(fmt.Sprintf("core: in-flight fill for %v detached from its buffer's slot", fl.ID))
			}
		}
	}
	for id, wb := range l.pendingWB {
		if id != wb.ID {
			panic(fmt.Sprintf("core: pending write-back for %v holds block %v", id, wb.ID))
		}
		if wb.Data == nil {
			panic(fmt.Sprintf("core: pending write-back for %v has no data", id))
		}
	}
	for fid := range l.persisted {
		if _, ok := l.fsys.ByID(fid); !ok {
			panic(fmt.Sprintf("core: removed file %d still has persisted-block bits", fid))
		}
	}
	for name, wb := range l.discarding {
		if wb.Discard == nil || wb.name != name {
			panic(fmt.Sprintf("core: discard in flight for %q holds %+v", name, wb))
		}
	}
	for fid, wb := range l.shadowed {
		f, ok := l.fsys.ByID(fid)
		if !ok || l.discarding[f.Name()] != wb {
			panic(fmt.Sprintf("core: file %d is shadowed by a discard that is not its name's newest in flight", fid))
		}
	}
}
