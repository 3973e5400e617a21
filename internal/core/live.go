// live.go — the real-clock kernel behind the acfcd daemon.
//
// The DES System in this package models a machine: disk arms, a CPU, and
// virtual time. A cache *server* needs the same kernel — the same buffer
// cache, the same ACM, the same fbehavior surface and the same per-owner
// accounting — but driven by real requests against a real block store
// (disk.Store), with no simulated costs. Live is that kernel.
//
// Concurrency contract: Live is single-threaded by design. Its methods
// never run concurrently: one goroutine at a time holds the kernel — in
// the server, whichever goroutine holds the shard's lock, a session's
// reader, a fill worker or a write-behind batch — and calls them. Block
// fills and write-backs are the only concurrent work, and they re-enter
// through CompleteFill and CompleteWriteBack under that same exclusion.
// This mirrors the paper's kernel, where the buffer cache runs inside the
// caller's system call under the monolithic-kernel lock and a disk
// completion runs its handler in place, and it is why the cache and ACM
// structures — written for the one-runnable-process DES — can be reused
// unchanged.
//
// Accounting parity: Read and Write mirror Proc.Access / Proc.WriteAccess
// counter for counter (ReadCalls, Hits, Misses, DemandReads, WriteBacks,
// ...), with read-ahead off. A workload replayed through Live therefore
// produces the DES run's cache.Stats and the same ProcStats over the
// oracle's counter subset — the server oracle test holds the two
// implementations to that. Opens and MetadataReads are outside the subset:
// Live has no inode cache and never reads metadata.
package core

import (
	"errors"
	"fmt"
	"math"
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

// LiveConfig configures a Live kernel.
type LiveConfig struct {
	// CacheBytes sizes the buffer cache (default 6.4 MB, as in the DES).
	CacheBytes int64
	// Alloc is the global allocation policy. A foolish manager is always
	// revoked (footnote 7): only the DES can turn revocation off.
	Alloc cache.Alloc

	// Store holds block contents (default: an in-memory MemStore).
	Store disk.Store

	// StartFill, when non-nil, executes block reads asynchronously, a run
	// at a time: a demand miss is a run of one, a read-ahead window a
	// whole run (same file, ascending blocks) the executor may retire as
	// one vectored store read. For each fill it must arrange for fl.Data
	// (or fl.Err) to be produced and for CompleteFill(fl) to then be
	// called by the kernel's holder. The slice is the kernel's scratch,
	// reused by the next dispatch: an executor copies the fills out. Nil
	// means fills run synchronously inline — the mode the oracle test and
	// any single-threaded embedding use.
	StartFill func(fls []*Fill)

	// StartWriteBack, when non-nil, executes dirty-victim write-backs
	// asynchronously: it must arrange for the store write and for
	// CompleteWriteBack(wb) to then be called by the kernel's holder.
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

	// WallClock stamps cache recency with real time instead of the
	// deterministic per-operation logical tick. Neither clock changes
	// replacement: recency is the global list's order, a buffer's
	// ValidAt is only ever 0 or IOPending, and every flush outside tests
	// passes MaxTime (the oracle test replays under both).
	WallClock bool

	// shard and shards place the kernel in an n-way sharded set
	// (ShardConfig): shard i of n numbers its files i+n, i+2n, …, so a
	// file id names its shard (id mod n) and one id serves the client,
	// the namespace, the cache and the store. Unsharded: 1, 2, 3, ….
	shard, shards int
}

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
// by at most one block), the shard numbers its files i+n, i+2n, …, and
// everything else is copied unchanged. Each shard is a complete,
// independent Live — its own cache arena, ACM, namespace and fill
// accounting — which is what makes sharding safe: LRU-SP runs whole
// within each shard's replacement domain. ShardConfig(0, 1) is the
// identity, so a 1-shard kernel is bit-for-bit the unsharded one.
func (c LiveConfig) ShardConfig(i, n int) LiveConfig {
	if n <= 1 {
		return c
	}
	c.shard, c.shards = i, n
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
	// lastID is the id of the newest file (LiveConfig.shard).
	lastID fs.FileID
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
	// freeFills holds the fill records not in flight, last returned first
	// taken, as System.freeFills does for the DES's, and raRun is
	// noteSequential's run scratch: a miss or a read-ahead window
	// allocates nothing once as many records exist as fills are ever in
	// flight together.
	freeFills []*Fill
	raRun     []*Fill
	// pendingWB is the newest queued-but-unwritten write-back per block.
	// A fill for a block found here copies the bytes instead of reading
	// the store — the queue holds fresher data than the store until its
	// batch lands.
	pendingWB map[cache.BlockID]*WriteBack
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
}

// NewLive builds a Live kernel.
func NewLive(cfg LiveConfig) *Live {
	if cfg.Store == nil {
		cfg.Store = disk.NewMemStore()
	}
	l := &Live{
		cfg:        cfg,
		store:      cfg.Store,
		fsys:       fs.New(fs.Config{DiskBlocks: diskBlocks()}),
		lastID:     fs.FileID(cfg.shard),
		epoch:      time.Now(),
		mshr:       make(map[cache.BlockID]*Fill),
		pendingWB:  make(map[cache.BlockID]*WriteBack),
		discarding: make(map[string]*WriteBack),
		shadowed:   make(map[fs.FileID]*WriteBack),
	}
	l.ctl = acm.New(l.Now, acm.Limits{})
	l.bc = cache.New(cache.Config{
		Capacity:  cfg.cacheBlocks(),
		Alloc:     cfg.Alloc,
		Revoke:    true,
		SlotBytes: BlockSize,
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
			if b.Owner < 0 || b.Owner >= len(l.owners) || l.owners[b.Owner] == nil {
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
