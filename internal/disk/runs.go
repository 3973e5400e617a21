// runs.go — the run path both file stores share: each keeps a file's
// blocks in a file of their own at blk*BlockSize, so a same-file run of
// adjacent blocks is one contiguous range, one preadv or pwritev.

package disk

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
)

// fileRuns is the run path FileStore and DirStore share, and with it
// their Store and BatchStore methods. The I/O call counters are by
// shape: a "scalar" call is one ReadAt/WriteAt moving one block, a
// "vector" call one preadv/pwritev moving a run (IOCounts).
type fileRuns struct {
	files    fileSet     // the store that embeds this one
	vectored atomic.Bool // off without preadv/pwritev, or by SetVectored
	scratch  sync.Pool   // *runScratch

	scalarReads, vectorReads, scalarWrites, vectorWrites atomic.Int64
}

func (r *fileRuns) init(files fileSet) {
	r.files = files
	r.scratch.New = func() any { return &runScratch{vec: newVecOp()} }
	r.vectored.Store(vectoredIO)
}

// ReadBlock and WriteBlock implement Store: a block is a run of one.
func (r *fileRuns) ReadBlock(file, blk int32, dst []byte) error {
	return r.batch([]BlockSpan{{file, blk}}, [][]byte{dst}, false)[0]
}

func (r *fileRuns) WriteBlock(file, blk int32, src []byte) error {
	return r.batch([]BlockSpan{{file, blk}}, [][]byte{src}, true)[0]
}

// ReadBlocks and WriteBlocks implement BatchStore: one preadv or pwritev
// per same-file run of adjacent blocks, discards (nil sources) included.
func (r *fileRuns) ReadBlocks(specs []BlockSpan, dsts [][]byte) []error {
	return r.batch(specs, dsts, false)
}

func (r *fileRuns) WriteBlocks(specs []BlockSpan, srcs [][]byte) []error {
	return r.batch(specs, srcs, true)
}

// SetVectored forces the run path on or off: tests of the fallback.
func (r *fileRuns) SetVectored(on bool) { r.vectored.Store(on && vectoredIO) }

// IOCounts reports the store's I/O calls so far, by shape.
func (r *fileRuns) IOCounts() (scalarReads, vectorReads, scalarWrites, vectorWrites int64) {
	return r.scalarReads.Load(), r.vectorReads.Load(), r.scalarWrites.Load(), r.vectorWrites.Load()
}

// storeFile is an open file and its RawConn, fetched once so that a
// vectored run allocates nothing; the rest is FileStore's, under its mutex.
type storeFile struct {
	f    *os.File
	rc   syscall.RawConn
	refs int    // runs using f: it is closed only at 0
	used uint64 // the store's acquire count when a run last took it
	gone bool   // unlinked: close at the last release
}

// openStoreFile opens the file at path for a run, creating it if create
// is set; a missing file it may not create is nil with no error.
func openStoreFile(path string, create bool) (*storeFile, error) {
	flag := os.O_RDWR
	if create {
		flag |= os.O_CREATE
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if !create && os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &storeFile{f: f, rc: rc}, nil
}

// fileSet is how the run path reaches a store's files. acquire hands out
// a file for a run (nil, and no error, for a missing file it may not
// create) and release takes it back. drop takes a run of nothing but
// discards and reports whether that was all: a missing file has none to
// make, and one the run covers from block 0 to its end is unlinked.
// Otherwise the discards are written as zeros.
type fileSet interface {
	acquire(file int32, create bool) (*storeFile, error)
	release(*storeFile) error
	drop(file, start int32, n int) (bool, error)
}

// dropCovered is drop on the file at path.
func dropCovered(path string, start int32, n int) (bool, error) {
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return true, nil // never written: the blocks already read as zeros
	}
	if err != nil {
		return false, err
	}
	if start == 0 && fi.Size() <= int64(n)*BlockSize {
		return true, os.Remove(path)
	}
	return false, nil
}

// runScratch is one batch call's pooled memory: the spans' order, one
// run's buffers and the vectored call's state. It goes back to the pool
// holding no buffer.
type runScratch struct {
	idx  []int
	bufs [][]byte
	vec  *vecOp
}

// batch checks every span's buffer, orders the spans that pass by
// (file, block) — stably, so of a block named twice the later write wins
// — and moves each same-file run of adjacent blocks. A bad buffer fails
// its span alone; a run that fails fails all its spans. Over descriptors
// already open it allocates only the []error it returns.
func (r *fileRuns) batch(specs []BlockSpan, bufs [][]byte, write bool) []error {
	check, verb := checkDst, "read"
	if write {
		check, verb = checkSrc, "write"
	}
	errs := make([]error, len(specs))
	sc := r.scratch.Get().(*runScratch)
	defer r.scratch.Put(sc)
	idx := sc.idx[:0]
	for i := range specs {
		if errs[i] = check(bufs[i]); errs[i] == nil {
			idx = append(idx, i)
		}
	}
	sc.idx = idx
	slices.SortStableFunc(idx, func(a, b int) int {
		sa, sb := specs[a], specs[b]
		return cmp.Or(cmp.Compare(sa.File, sb.File), cmp.Compare(sa.Blk, sb.Blk))
	})
	for lo := 0; lo < len(idx); {
		sp := specs[idx[lo]]
		hi := lo + 1
		for hi < len(idx) && specs[idx[hi]] == (BlockSpan{sp.File, sp.Blk + int32(hi-lo)}) {
			hi++
		}
		for _, i := range idx[lo:hi] {
			sc.bufs = append(sc.bufs, bufs[i])
		}
		var err error
		if write {
			err = r.writeRun(sc, sp.File, sp.Blk)
		} else {
			err = r.readRun(sc, sp.File, sp.Blk)
		}
		clear(sc.bufs)
		sc.bufs = sc.bufs[:0]
		if err != nil {
			err = fmt.Errorf("disk: %s %d/%d+%d: %w", verb, sp.File, sp.Blk, hi-lo, err)
			for _, i := range idx[lo:hi] {
				errs[i] = err
			}
		}
		lo = hi
	}
	return errs
}

// readRun fills the run's buffers from file, from block start on. A
// missing file, and whatever lies past the end of one, read as zeros.
func (r *fileRuns) readRun(sc *runScratch, file, start int32) error {
	sf, err := r.files.acquire(file, false)
	if sf == nil {
		for _, b := range sc.bufs {
			clear(b)
		}
		return err
	}
	defer r.files.release(sf)
	off := int64(start) * BlockSize
	if len(sc.bufs) > 1 && r.vectored.Load() {
		calls, err := sc.vec.full(sf.rc, sysPreadv, sc.bufs, off)
		r.vectorReads.Add(int64(calls))
		return err
	}
	for _, b := range sc.bufs {
		r.scalarReads.Add(1)
		n, err := sf.f.ReadAt(b, off)
		if err == io.EOF {
			clear(b[n:])
		} else if err != nil {
			return err
		}
		off += BlockSize
	}
	return nil
}

// writeRun writes the run's buffers to file from block start on, a nil
// one as zeros. A run of discards alone makes no file, and unlinks one it
// covers to the end (fileSet.drop).
func (r *fileRuns) writeRun(sc *runScratch, file, start int32) error {
	if !slices.ContainsFunc(sc.bufs, func(b []byte) bool { return b != nil }) {
		if done, err := r.files.drop(file, start, len(sc.bufs)); done || err != nil {
			return err
		}
	}
	sf, err := r.files.acquire(file, true)
	if err != nil {
		return err
	}
	for i, b := range sc.bufs {
		if b == nil {
			sc.bufs[i] = zeroBlock[:]
		}
	}
	off := int64(start) * BlockSize
	if len(sc.bufs) > 1 && r.vectored.Load() {
		var calls int
		calls, err = sc.vec.full(sf.rc, sysPwritev, sc.bufs, off)
		r.vectorWrites.Add(int64(calls))
	} else {
		for _, b := range sc.bufs {
			r.scalarWrites.Add(1)
			if _, err = sf.f.WriteAt(b, off); err != nil {
				break
			}
			off += BlockSize
		}
	}
	if rerr := r.files.release(sf); err == nil {
		err = rerr
	}
	return err
}

// checkDst rejects a read buffer that is not a whole block.
func checkDst(dst []byte) error {
	if len(dst) != BlockSize {
		return fmt.Errorf("disk: read buffer is %d bytes, want %d", len(dst), BlockSize)
	}
	return nil
}

// zeroBlock is what writeRun writes over a discarded block.
var zeroBlock [BlockSize]byte
