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
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
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
	if err := checkDst(dst); err != nil {
		return err
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
		if errs[i] = checkDst(dsts[i]); errs[i] != nil {
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

// maxOpenFiles bounds the descriptors a FileStore keeps open.
const maxOpenFiles = 64

// FileStore is a Store over a scratch directory it makes and removes:
// each file id's blocks in a file named by the id, block blk at offset
// blk*BlockSize. That is DirStore's layout keyed by id, as a FileStore
// is never told names, and the two share one run path (runs.go): a
// discard that covers a whole file unlinks it, giving its bytes back.
//
// It keeps at most maxOpenFiles descriptors open. When it needs another,
// it closes the idle one a run took least recently, or waits while all
// are in use: a descriptor in use is never closed, and one whose file is
// unlinked under it closes when the last run using it is done. An id a
// read found no file for costs one failed open, not one a read run.
type FileStore struct {
	fileRuns
	dir string

	mu    sync.Mutex
	freed sync.Cond            // a descriptor went idle or was closed
	files map[int32]*storeFile // nil: no file yet, until a write makes one
	open  int                  // descriptors open: files' and gone ones still in use
	takes uint64               // acquires so far, stamped into storeFile.used
}

// NewFileStore makes the directory dir for a store; Close removes it. A
// path that exists and is not an empty directory is refused, so a
// mistyped path loses nothing.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.Mkdir(dir, 0o755); os.IsExist(err) {
		if ents, rerr := os.ReadDir(dir); rerr != nil || len(ents) > 0 {
			return nil, fmt.Errorf("disk: store %s exists and is not an empty directory", dir)
		}
	} else if err != nil {
		return nil, err
	}
	s := &FileStore{dir: dir, files: make(map[int32]*storeFile)}
	s.freed.L = &s.mu
	s.init(s)
	return s, nil
}

func (s *FileStore) path(file int32) string {
	return filepath.Join(s.dir, strconv.Itoa(int(file)))
}

// acquire implements fileSet: the cached descriptor, or a new one once
// the cache has room.
func (s *FileStore) acquire(file int32, create bool) (*storeFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sf, known := s.files[file]; known && sf == nil && !create {
		return nil, nil
	}
	for s.files[file] == nil && s.open >= maxOpenFiles && !s.evictLocked() {
		s.freed.Wait()
	}
	sf := s.files[file]
	if sf == nil {
		var err error
		if sf, err = openStoreFile(s.path(file), create); sf == nil {
			if err == nil {
				s.files[file] = nil
			}
			return nil, err
		}
		s.files[file] = sf
		s.open++
	}
	s.takes++
	sf.refs, sf.used = sf.refs+1, s.takes
	return sf, nil
}

// release implements fileSet.
func (s *FileStore) release(sf *storeFile) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sf.refs--; sf.refs == 0 && sf.gone {
		s.closeLocked(sf)
	} else if sf.refs == 0 {
		s.freed.Broadcast()
	}
	return nil
}

// drop implements fileSet. It holds the mutex across the unlink, so no
// run opens the file between the check and the unlink and keeps the
// removed one open.
func (s *FileStore) drop(file, start int32, n int) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	done, err := dropCovered(s.path(file), start, n)
	if sf, known := s.files[file]; done && err == nil && known {
		delete(s.files, file)
		if sf != nil {
			sf.gone = true
			if sf.refs == 0 {
				s.closeLocked(sf)
			}
		}
	}
	return done, err
}

// evictLocked closes the idle descriptor a run took least recently, and
// reports false if every one is in use.
func (s *FileStore) evictLocked() bool {
	var lru *storeFile
	var id int32
	for f, sf := range s.files {
		if sf != nil && sf.refs == 0 && (lru == nil || sf.used < lru.used) {
			lru, id = sf, f
		}
	}
	if lru == nil {
		return false
	}
	delete(s.files, id)
	s.closeLocked(lru)
	return true
}

// closeLocked drops Close's error: what a pwrite returned for is written.
func (s *FileStore) closeLocked(sf *storeFile) {
	sf.f.Close()
	s.open--
	s.freed.Broadcast()
}

// Close implements Store: it removes the directory with every block in
// it, after closing the descriptors.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for f, sf := range s.files {
		delete(s.files, f)
		if sf != nil {
			s.closeLocked(sf)
		}
	}
	return os.RemoveAll(s.dir)
}
