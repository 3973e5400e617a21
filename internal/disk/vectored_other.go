//go:build !linux

// vectored_other.go — stubs for platforms without preadv/pwritev. The
// file stores' constructors see vectoredIO == false and keep the run path
// on the portable ReadAt/WriteAt loop, so these are never reached; they
// exist only to keep the package compiling everywhere.

package disk

import (
	"errors"
	"syscall"
)

const vectoredIO = false

var errNoVectoredIO = errors.New("disk: vectored I/O unsupported on this platform")

const sysPreadv, sysPwritev = 0, 0

// vecOp stands in for the preadv/pwritev runner; see vectored_linux.go.
type vecOp struct{}

func newVecOp() *vecOp { return &vecOp{} }

func (*vecOp) full(rc syscall.RawConn, trap uintptr, bufs [][]byte, off int64) (calls int, err error) {
	return 0, errNoVectoredIO
}
