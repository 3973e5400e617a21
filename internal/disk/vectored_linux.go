//go:build linux

// vectored_linux.go — preadv/pwritev wrappers for the FileStore run
// path. The stdlib exposes the syscall numbers and Iovec but not the
// calls themselves, and the no-new-dependencies rule keeps x/sys out,
// so the two thin wrappers live here: build the iovec array, split the
// offset into the raw ABI's (pos_l, pos_h) pair, retry on EINTR, and
// advance through short transfers until the run is done.

package disk

import (
	"io"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// vectoredIO reports whether this platform has preadv/pwritev; the
// FileStore constructor uses it to pick the run path.
const vectoredIO = true

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

// vecCall issues one preadv/pwritev over bufs at off, retrying EINTR.
// It returns the bytes transferred and the number of syscalls issued
// (EINTR retries count: they hit the disk scheduler even when they
// move no data).
func vecCall(trap uintptr, fd uintptr, bufs [][]byte, off int64) (n int, calls int, err error) {
	iovs := make([]syscall.Iovec, len(bufs))
	for i, b := range bufs {
		iovs[i].Base = &b[0]
		iovs[i].SetLen(len(b))
	}
	lo, hi := offLoHi(off)
	for {
		calls++
		r, _, e := syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(&iovs[0])), uintptr(len(iovs)), lo, hi, 0)
		runtime.KeepAlive(bufs)
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			return 0, calls, e
		}
		return int(r), calls, nil
	}
}

// vecFull drives vecCall until every byte of bufs has transferred,
// chunking at maxIovecs and resuming after short transfers. bufs is
// consumed: the slice and its entries are re-sliced as data moves, so
// callers pass a scratch header slice (the underlying block buffers
// are never modified beyond the transfer itself).
func vecFull(trap uintptr, f *os.File, bufs [][]byte, off int64) (calls int, err error) {
	sc, err := f.SyscallConn()
	if err != nil {
		return 0, err
	}
	var inner error
	cerr := sc.Control(func(fd uintptr) {
		for len(bufs) > 0 {
			chunk := bufs
			if len(chunk) > maxIovecs {
				chunk = chunk[:maxIovecs]
			}
			n, c, err := vecCall(trap, fd, chunk, off)
			calls += c
			if err != nil {
				inner = err
				return
			}
			if n == 0 {
				if trap == syscall.SYS_PWRITEV {
					inner = io.ErrShortWrite
					return
				}
				// End of file inside an allocated run: the rest is not
				// written yet and reads as zeros (FileStore.readSlot).
				for _, b := range bufs {
					clear(b)
				}
				return
			}
			off += int64(n)
			for n > 0 {
				if n >= len(bufs[0]) {
					n -= len(bufs[0])
					bufs = bufs[1:]
				} else {
					bufs[0] = bufs[0][n:]
					n = 0
				}
			}
		}
	})
	if cerr != nil {
		return calls, cerr
	}
	return calls, inner
}

// preadvFull reads len(bufs) buffers from contiguous file offsets
// starting at off in as few preadv calls as short reads allow; whatever
// lies past the end of the file reads as zeros.
func preadvFull(f *os.File, bufs [][]byte, off int64) (calls int, err error) {
	return vecFull(syscall.SYS_PREADV, f, bufs, off)
}

// pwritevFull writes len(bufs) buffers to contiguous file offsets
// starting at off.
func pwritevFull(f *os.File, bufs [][]byte, off int64) (calls int, err error) {
	return vecFull(syscall.SYS_PWRITEV, f, bufs, off)
}
