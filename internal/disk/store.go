// store.go — the live (real-I/O) block backend behind the acfcd daemon.
//
// The simulated Disk in this package models *time*; a long-running cache
// server needs a backend that actually holds bytes. A Store addresses
// blocks by (file, block-number) pairs — the same coordinates as
// cache.BlockID — and is safe for concurrent use, because the daemon's
// fill workers and write-behind batches call it from goroutines of their
// own, concurrently with each other and with the synchronous write-backs
// a shard performs inline under its lock.

package disk

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// Store is a live block backend: it durably (or at least authoritatively)
// holds the contents of every block written back and not since discarded,
// and serves fills for blocks entering the cache. Blocks never written
// read as zeros, like a freshly allocated file. Implementations must be
// safe for concurrent use.
//
// There is no delete method: a write whose source is nil is a discard
// (see WriteBlock; Discard issues them). It rides the write path for two
// reasons. A discard must not overtake an older queued write of its
// block, and the write path — the kernel's pending table, the shard's
// write-behind FIFO — is the machinery that already orders writes.
// And a Store is wrapped (counting and gating test stores, the
// benchmark's timer): an optional interface stops at the first
// wrapper that has not heard of it, a nil source passes through all of
// them untouched.
type Store interface {
	// ReadBlock fills dst (len BlockSize) with the block's contents.
	// dst is typically an arena-backed cache slot (the fill path reads
	// straight into the buffer the cache will serve from); implementations
	// must not retain it past the call.
	ReadBlock(file int32, blk int32, dst []byte) error
	// WriteBlock persists src (len BlockSize) as the block's contents. A
	// nil src discards the block instead: it returns to the never-written
	// state — reads as zeros again — and the backend may release its
	// space; discarding a block never written is a no-op. Any other
	// length is an error.
	WriteBlock(file int32, blk int32, src []byte) error
	// Close releases the backend.
	Close() error
}

// checkSrc rejects a write source that is neither a whole block nor the
// nil of a discard.
func checkSrc(src []byte) error {
	if src != nil && len(src) != BlockSize {
		return fmt.Errorf("disk: write buffer is %d bytes, want %d", len(src), BlockSize)
	}
	return nil
}

// storeKey packs a (file, block) pair into one map key.
func storeKey(file, blk int32) uint64 {
	return uint64(uint32(file))<<32 | uint64(uint32(blk))
}

// MemStore is an in-memory Store: the zero-dependency backend for tests
// and benchmarks, and the default for an acfcd daemon started without a
// backing file.
type MemStore struct {
	mu     sync.RWMutex
	blocks map[uint64][]byte
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: make(map[uint64][]byte)}
}

// ReadBlock implements Store.
func (m *MemStore) ReadBlock(file, blk int32, dst []byte) error {
	if len(dst) != BlockSize {
		return fmt.Errorf("disk: read buffer is %d bytes, want %d", len(dst), BlockSize)
	}
	m.mu.RLock()
	m.readLocked(file, blk, dst)
	m.mu.RUnlock()
	return nil
}

func (m *MemStore) readLocked(file, blk int32, dst []byte) {
	if src := m.blocks[storeKey(file, blk)]; src == nil {
		clear(dst)
	} else {
		copy(dst, src)
	}
}

// WriteBlock implements Store. A block written before is updated in
// place under the lock — no reader holds a reference to the stored
// buffer (ReadBlock copies out under the same lock), so reuse is safe
// and the steady-state write-back path stops allocating. A discard
// deletes the entry, so the block's memory goes back to the collector.
func (m *MemStore) WriteBlock(file, blk int32, src []byte) error {
	if err := checkSrc(src); err != nil {
		return err
	}
	m.mu.Lock()
	m.writeLocked(file, blk, src)
	m.mu.Unlock()
	return nil
}

func (m *MemStore) writeLocked(file, blk int32, src []byte) {
	k := storeKey(file, blk)
	if src == nil {
		delete(m.blocks, k)
		return
	}
	if dst := m.blocks[k]; dst != nil {
		copy(dst, src)
		return
	}
	owned := make([]byte, BlockSize)
	copy(owned, src)
	m.blocks[k] = owned
}

// ReadBlocks implements BatchStore: one lock acquisition for all the
// copies.
func (m *MemStore) ReadBlocks(specs []BlockSpan, dsts [][]byte) []error {
	errs := make([]error, len(specs))
	m.mu.RLock()
	for i, sp := range specs {
		if len(dsts[i]) != BlockSize {
			errs[i] = fmt.Errorf("disk: read buffer is %d bytes, want %d", len(dsts[i]), BlockSize)
			continue
		}
		m.readLocked(sp.File, sp.Blk, dsts[i])
	}
	m.mu.RUnlock()
	return errs
}

// WriteBlocks implements BatchStore.
func (m *MemStore) WriteBlocks(specs []BlockSpan, srcs [][]byte) []error {
	errs := make([]error, len(specs))
	m.mu.Lock()
	for i, sp := range specs {
		if errs[i] = checkSrc(srcs[i]); errs[i] != nil {
			continue
		}
		m.writeLocked(sp.File, sp.Blk, srcs[i])
	}
	m.mu.Unlock()
	return errs
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// Blocks reports the number of blocks the store holds: written and not
// since discarded (tests).
func (m *MemStore) Blocks() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.blocks)
}

// BlocksOf reports how many of them belong to file (tests).
func (m *MemStore) BlocksOf(file int32) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for k := range m.blocks {
		if int32(k>>32) == file {
			n++
		}
	}
	return n
}

// FileStore is a Store backed by one flat file: blocks are appended to
// slots as they are first written, and a slot map translates (file,
// block) to the slot offset. Reads of unwritten blocks return zeros
// without touching the file. Concurrent reads use pread on disjoint
// offsets; writes resolve their slots under the slot map's mutex and
// write unlocked.
//
// A discard forgets the block's slot and touches nothing else: the slot
// is not handed to another block and the file does not shrink. A fill
// resolves a slot's offset under the mutex and reads it after letting go,
// so a slot reused in between would hand it another file's bytes; an
// unmapped slot can only ever show the removed block's own. Reuse waits
// for a fixed file×block layout, where a slot has one owner for ever.
type FileStore struct {
	mu    sync.Mutex
	f     *os.File
	slots map[uint64]int64
	next  int64

	// vectored gates the preadv/pwritev run path; false on platforms
	// without the syscalls, and flipped off by tests to exercise the
	// portable fallback.
	vectored atomic.Bool
	// scratch pools the batch calls' runScratch.
	scratch sync.Pool

	// I/O call counters, by shape. A "scalar" call is one ReadAt/WriteAt
	// moving one block; a "vector" call is one preadv/pwritev moving a
	// run. The syscall-count regression gate and the profiling workflow
	// in DESIGN.md read these through IOCounts.
	scalarReads  atomic.Int64
	vectorReads  atomic.Int64
	scalarWrites atomic.Int64
	vectorWrites atomic.Int64
}

// NewFileStore opens (creating or truncating) a file-backed store at
// path.
func NewFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &FileStore{f: f, slots: make(map[uint64]int64)}
	s.scratch.New = func() any { return &runScratch{vec: newVecOp(rc)} }
	s.vectored.Store(vectoredIO)
	return s, nil
}

// SetVectored forces the run path on or off (tests: the portable
// fallback must behave identically to preadv/pwritev).
func (s *FileStore) SetVectored(on bool) { s.vectored.Store(on && vectoredIO) }

// IOCounts reports cumulative store calls by shape: single-block
// ReadAt/WriteAt versus vectored preadv/pwritev runs.
func (s *FileStore) IOCounts() (scalarReads, vectorReads, scalarWrites, vectorWrites int64) {
	return s.scalarReads.Load(), s.vectorReads.Load(), s.scalarWrites.Load(), s.vectorWrites.Load()
}

// ReadBlock implements Store.
func (s *FileStore) ReadBlock(file, blk int32, dst []byte) error {
	if len(dst) != BlockSize {
		return fmt.Errorf("disk: read buffer is %d bytes, want %d", len(dst), BlockSize)
	}
	s.mu.Lock()
	off, ok := s.slots[storeKey(file, blk)]
	s.mu.Unlock()
	if !ok {
		clear(dst)
		return nil
	}
	return s.readSlot(dst, off)
}

// readSlot reads one allocated slot with one ReadAt. A writer publishes
// a new slot's offset before the pwrite that extends the file to it
// lands (see WriteBlock), so a concurrent reader can resolve a slot that
// lies partly or wholly past the end of the file. What is missing has
// not been written yet, and unwritten blocks read as zeros.
func (s *FileStore) readSlot(dst []byte, off int64) error {
	s.scalarReads.Add(1)
	n, err := s.f.ReadAt(dst, off)
	if err == io.EOF {
		clear(dst[n:])
		return nil
	}
	return err
}

// WriteBlock implements Store. The mutex covers only the slot map;
// once a block's slot offset is assigned it never changes, so the
// pwrite itself runs unlocked — concurrent write-behind flushes and
// fill preads overlap instead of serializing on the map lock.
func (s *FileStore) WriteBlock(file, blk int32, src []byte) error {
	if err := checkSrc(src); err != nil {
		return err
	}
	s.mu.Lock()
	off, write := s.slotLocked(storeKey(file, blk), src == nil)
	s.mu.Unlock()
	if !write {
		return nil
	}
	s.scalarWrites.Add(1)
	_, err := s.f.WriteAt(src, off)
	return err
}

// slotLocked resolves the slot a write of block k lands in, allocating
// the next one for a block that has none; for a discard it forgets the
// block's slot instead and reports that there is nothing to write.
func (s *FileStore) slotLocked(k uint64, discard bool) (off int64, write bool) {
	if discard {
		delete(s.slots, k)
		return 0, false
	}
	off, ok := s.slots[k]
	if !ok {
		off = s.next
		s.next += BlockSize
		s.slots[k] = off
	}
	return off, true
}

// runEnt pins one batch entry to its resolved slot offset.
type runEnt struct {
	off int64
	i   int // index into the caller's specs/bufs
}

// runScratch is one batch call's reusable memory: a write's span order,
// the entries resolved to slots, one run's buffers, and the vectored
// call's state with its iovecs. A batch takes one from the store's pool
// and gives it back with no buffer left in it.
type runScratch struct {
	idx  []int
	ents []runEnt
	bufs [][]byte
	vec  *vecOp
}

// gather collects the buffers of run's entries out of bufs into the
// scratch; the caller clears them once the run is done.
func (sc *runScratch) gather(run []runEnt, bufs [][]byte) [][]byte {
	sc.bufs = sc.bufs[:0]
	for _, e := range run {
		sc.bufs = append(sc.bufs, bufs[e.i])
	}
	return sc.bufs
}

// byOff orders entries by slot offset.
func byOff(a, b runEnt) int { return cmp.Compare(a.off, b.off) }

// groupRuns walks offset-sorted entries and calls emit once per
// contiguous-slot run. Equal offsets (the same block named twice in one
// batch) break the run, so duplicate writes stay separate calls in
// batch order.
func groupRuns(ents []runEnt, emit func(run []runEnt)) {
	for i := 0; i < len(ents); {
		j := i + 1
		for j < len(ents) && ents[j].off == ents[j-1].off+BlockSize {
			j++
		}
		emit(ents[i:j])
		i = j
	}
}

// ReadBlocks implements BatchStore: resolve every span's slot under one
// lock hold, sort by slot offset, and issue one preadv per contiguous
// run (ReadAt per block when vectoring is off or the run is a single
// block). Unwritten spans zero-fill without touching the file. A run
// that fails mid-call marks every span in the run with the error —
// the caller can't tell which block the kernel choked on, and fill
// errors are per-block terminal anyway. Beyond the []error it returns,
// a batch allocates nothing: the rest is pooled scratch.
func (s *FileStore) ReadBlocks(specs []BlockSpan, dsts [][]byte) []error {
	errs := make([]error, len(specs))
	sc := s.scratch.Get().(*runScratch)
	defer s.scratch.Put(sc)
	ents := sc.ents[:0]
	s.mu.Lock()
	for i, sp := range specs {
		if len(dsts[i]) != BlockSize {
			errs[i] = fmt.Errorf("disk: read buffer is %d bytes, want %d", len(dsts[i]), BlockSize)
			continue
		}
		if off, ok := s.slots[storeKey(sp.File, sp.Blk)]; ok {
			ents = append(ents, runEnt{off, i})
		} else {
			clear(dsts[i])
		}
	}
	s.mu.Unlock()
	sc.ents = ents
	slices.SortFunc(ents, byOff)
	groupRuns(ents, func(run []runEnt) {
		err := s.readRun(sc.vec, sc.gather(run, dsts), run[0].off)
		clear(sc.bufs)
		if err != nil {
			for _, e := range run {
				errs[e.i] = err
			}
		}
	})
	return errs
}

func (s *FileStore) readRun(vec *vecOp, bufs [][]byte, off int64) error {
	if len(bufs) > 1 && s.vectored.Load() {
		calls, err := vec.full(sysPreadv, bufs, off)
		s.vectorReads.Add(int64(calls))
		return err
	}
	for _, b := range bufs {
		if err := s.readSlot(b, off); err != nil {
			return err
		}
		off += BlockSize
	}
	return nil
}

// WriteBlocks implements BatchStore. Slot allocation is run-aware: the
// valid spans are ordered by (file, block) before slots are assigned
// under one lock hold, so a batch of sequential file blocks hitting an
// empty store lands in sequential slots — which is exactly what lets
// the next cold read of that range collapse into one preadv. The sort
// is stable so a block named twice keeps batch order (last write wins),
// a discard included: it unmaps the slot an earlier span of the batch
// resolved — that span then writes to a slot nobody reads — and a later
// span of the same block takes a fresh one.
func (s *FileStore) WriteBlocks(specs []BlockSpan, srcs [][]byte) []error {
	errs := make([]error, len(specs))
	sc := s.scratch.Get().(*runScratch)
	defer s.scratch.Put(sc)
	idx := sc.idx[:0]
	for i := range specs {
		if errs[i] = checkSrc(srcs[i]); errs[i] != nil {
			continue
		}
		idx = append(idx, i)
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		sa, sb := specs[a], specs[b]
		return cmp.Or(cmp.Compare(sa.File, sb.File), cmp.Compare(sa.Blk, sb.Blk))
	})
	ents := sc.ents[:0]
	s.mu.Lock()
	for _, i := range idx {
		if off, write := s.slotLocked(storeKey(specs[i].File, specs[i].Blk), srcs[i] == nil); write {
			ents = append(ents, runEnt{off, i})
		}
	}
	s.mu.Unlock()
	sc.idx, sc.ents = idx, ents
	slices.SortStableFunc(ents, byOff)
	groupRuns(ents, func(run []runEnt) {
		err := s.writeRun(sc.vec, sc.gather(run, srcs), run[0].off)
		clear(sc.bufs)
		if err != nil {
			for _, e := range run {
				errs[e.i] = err
			}
		}
	})
	return errs
}

func (s *FileStore) writeRun(vec *vecOp, bufs [][]byte, off int64) error {
	if len(bufs) > 1 && s.vectored.Load() {
		calls, err := vec.full(sysPwritev, bufs, off)
		s.vectorWrites.Add(int64(calls))
		return err
	}
	for _, b := range bufs {
		s.scalarWrites.Add(1)
		if _, err := s.f.WriteAt(b, off); err != nil {
			return err
		}
		off += BlockSize
	}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }
