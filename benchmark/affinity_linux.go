package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// oneCPUEnv marks a process that onOneCPU has already confined.
const oneCPUEnv = "ACFC_BENCHMARK_ONE_CPU"

// onOneCPU confines the process to the first processor it may run on, by
// setting this thread's affinity and executing the program again: every
// thread of the new image inherits the mask, and the runtime sizes itself
// to the one processor. It does not return when it succeeds.
//
// open_zipf needs it. A server at a fraction of its capacity sleeps and
// wakes around every request, and an unconfined process's threads wake
// each other across processors; what one such wake-up costs inside a
// virtual machine is settled anew for every process (runs of the same
// code read 78 or 113 us of CPU a request, nothing between) and moves
// with the host's load. On one processor a wake-up is a context switch,
// and ten runs agree to a few percent.
func onOneCPU() error {
	if os.Getenv(oneCPUEnv) != "" || runtime.NumCPU() == 1 {
		return nil
	}
	runtime.LockOSThread() // the thread whose mask is set is the one that executes
	var mask [16]uint64
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	first := true
	for i, w := range mask {
		if first && w != 0 {
			mask[i], first = 1<<bits.TrailingZeros64(w), false
		} else {
			mask[i] = 0
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), oneCPUEnv+"=1"))
}
