package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm is a one-shot timer a goroutine can sleep on to within tens of
// microseconds: a timerfd read through the runtime's poller. An open
// loop needs it because nothing in the standard library will do here:
// the runtime's own timers round a short sleep on an idle process up to
// about a millisecond, as long as the gaps of the schedule being kept,
// and a nanosleep call keeps its processor while it sleeps, which on
// two processors starves the server being measured.
type alarm struct {
	fd uintptr
	f  *os.File // fd again, registered with the poller
}

func newAlarm() (*alarm, error) {
	const clockMonotonic, nonblock, cloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblock|cloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &alarm{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns d from now, or at once if d is not positive.
func (a *alarm) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: the interval (none: one shot), then the time.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := a.f.Read(expirations[:])
	return err
}

func (a *alarm) close() { a.f.Close() }
