// Package leakcheck finds goroutines a test binary left behind: the
// gate behind the server's promise that a stopped server costs nothing.
// Standard library only — it reads runtime.Stack.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long a goroutine seen alive is given to finish: ending
// is asynchronous for a goroutine nobody waits on (a test's `go
// srv.Serve(ln)` returns some time after Shutdown closed its listener).
const grace = 5 * time.Second

// Find returns the stack of every goroutine other than the caller's
// that has a frame — running or "created by" — whose function name
// starts with one of prefixes ("repro/internal/server." matches the
// package's own functions and methods but neither its _test package
// nor its subpackages).
func Find(prefixes ...string) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Goroutines are separated by blank lines; the caller's comes first.
	var found []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, line := range strings.Split(g, "\n") {
			line = strings.TrimPrefix(line, "created by ")
			if hasAnyPrefix(line, prefixes) {
				found = append(found, g)
				break
			}
		}
	}
	return found
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// Wait polls Find until it comes back empty or d has passed, and
// returns what was still alive.
func Wait(d time.Duration, prefixes ...string) []string {
	deadline := time.Now().Add(d)
	for {
		found := Find(prefixes...)
		if len(found) == 0 || time.Now().After(deadline) {
			return found
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Settle polls runtime.NumGoroutine until it is at most want or d has
// passed and returns the last count: a goroutine that has sent its last
// value or run its last deferred function still counts until it exits.
func Settle(want int, d time.Duration) int {
	for deadline := time.Now().Add(d); runtime.NumGoroutine() > want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// Main is a TestMain body: it runs the tests and then fails the package
// if a goroutine with a frame under one of prefixes is still alive.
func Main(m *testing.M, prefixes ...string) {
	code := m.Run()
	if code == 0 {
		if found := Wait(grace, prefixes...); len(found) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still alive after the tests:\n\n%s\n",
				len(found), strings.Join(found, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}
