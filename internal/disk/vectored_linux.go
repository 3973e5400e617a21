//go:build linux

// vectored_linux.go — preadv/pwritev wrappers for the file stores' run
// path. The stdlib exposes the syscall numbers and Iovec but not the
// calls themselves, and the no-new-dependencies rule keeps x/sys out,
// so the two thin wrappers live here: build the iovec array, split the
// offset into the raw ABI's (pos_l, pos_h) pair, retry on EINTR, and
// advance through short transfers until the run is done.

package disk

import (
	"io"
	"math/bits"
	"runtime"
	"syscall"
	"unsafe"
)

// vectoredIO reports whether this platform has preadv/pwritev; the file
// stores' constructors use it to pick the run path.
const vectoredIO = true

// sysPreadv and sysPwritev are the traps vecOp.full issues.
const sysPreadv, sysPwritev = syscall.SYS_PREADV, syscall.SYS_PWRITEV

// maxIovecs bounds one vectored call (Linux IOV_MAX is 1024); longer
// runs issue multiple calls.
const maxIovecs = 1024

// offLoHi splits a file offset for the raw preadv ABI, which takes the
// position as two long-sized words. On 64-bit the low word carries the
// whole offset and the double shift zeroes the high word; on 32-bit it
// lands the upper half without tripping the >= word-size shift rule.
func offLoHi(off int64) (lo, hi uintptr) {
	return uintptr(off), uintptr(uint64(off) >> (bits.UintSize - 1) >> 1)
}

// vecOp is one vectored run's state and its reusable iovec scratch. ctl
// is run bound once, at newVecOp, and the file's RawConn is the caller's,
// so a run through RawConn.Control allocates nothing: no closure, no
// iovec array, no RawConn.
type vecOp struct {
	ctl   func(fd uintptr)
	iovs  []syscall.Iovec
	trap  uintptr
	bufs  [][]byte
	off   int64
	calls int
	err   error
}

func newVecOp() *vecOp {
	op := &vecOp{}
	op.ctl = op.run
	return op
}

// full issues preadv or pwritev (trap) on rc's file over bufs at
// contiguous file offsets from off until every byte has transferred — whatever lies past
// the end of the file reads as zeros — chunking at maxIovecs and
// resuming after short transfers, and returns the syscalls issued
// (EINTR retries count: they hit the disk scheduler even when they move
// no data). bufs is consumed: the slice and its entries are re-sliced as
// data moves, so callers pass a scratch header slice (the underlying
// block buffers are never modified beyond the transfer itself).
func (op *vecOp) full(rc syscall.RawConn, trap uintptr, bufs [][]byte, off int64) (calls int, err error) {
	op.trap, op.bufs, op.off, op.calls, op.err = trap, bufs, off, 0, nil
	if cerr := rc.Control(op.ctl); cerr != nil {
		op.err = cerr
	}
	op.bufs = nil
	return op.calls, op.err
}

// run is full's body, on the file's descriptor.
func (op *vecOp) run(fd uintptr) {
	for len(op.bufs) > 0 {
		chunk := op.bufs[:min(len(op.bufs), maxIovecs)]
		n, err := op.call(fd, chunk)
		if err != nil {
			op.err = err
			return
		}
		if n == 0 {
			if op.trap == syscall.SYS_PWRITEV {
				op.err = io.ErrShortWrite
				return
			}
			// End of file inside the run: the rest was never written
			// and reads as zeros.
			for _, b := range op.bufs {
				clear(b)
			}
			return
		}
		op.off += int64(n)
		for n > 0 {
			if n >= len(op.bufs[0]) {
				n -= len(op.bufs[0])
				op.bufs = op.bufs[1:]
			} else {
				op.bufs[0] = op.bufs[0][n:]
				n = 0
			}
		}
	}
}

// call issues one preadv/pwritev over bufs at op.off, retrying EINTR, and
// returns the bytes transferred. The iovecs are cleared afterwards, so
// the scratch pins no buffer between runs.
func (op *vecOp) call(fd uintptr, bufs [][]byte) (n int, err error) {
	iovs := op.iovs[:0]
	for _, b := range bufs {
		iov := syscall.Iovec{Base: &b[0]}
		iov.SetLen(len(b))
		iovs = append(iovs, iov)
	}
	op.iovs = iovs
	defer clear(iovs)
	lo, hi := offLoHi(op.off)
	for {
		op.calls++
		r, _, e := syscall.Syscall6(op.trap, fd, uintptr(unsafe.Pointer(&iovs[0])), uintptr(len(iovs)), lo, hi, 0)
		runtime.KeepAlive(bufs)
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			return 0, e
		}
		return int(r), nil
	}
}
