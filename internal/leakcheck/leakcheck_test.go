package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func park(release <-chan struct{}) { <-release }

// TestFindSeesAParkedGoroutine: a goroutine of this package is found
// while it is alive — by its own frame or, not yet started, by its
// creator's — the caller is not, and Wait comes back empty once it has ended.
func TestFindSeesAParkedGoroutine(t *testing.T) {
	const self = "repro/internal/leakcheck."
	if found := Find(self); len(found) != 0 {
		t.Fatalf("before: found %d goroutines:\n%s", len(found), strings.Join(found, "\n\n"))
	}
	release := make(chan struct{})
	go park(release)
	found := Wait(time.Second, "no/such/package.")
	if len(found) != 0 {
		t.Errorf("a prefix nothing has matched %d goroutines", len(found))
	}
	found = Find(self)
	if len(found) != 1 || !strings.Contains(found[0], self+"TestFindSeesAParkedGoroutine") {
		t.Fatalf("parked goroutine: found %d:\n%s", len(found), strings.Join(found, "\n\n"))
	}
	close(release)
	if found := Wait(time.Second, self); len(found) != 0 {
		t.Errorf("after release: %d goroutines still found:\n%s", len(found), strings.Join(found, "\n\n"))
	}
}

// TestSettle: a live goroutine keeps the count up for the whole wait; an
// ended one leaves it within the wait.
func TestSettle(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	go park(release)
	if n := Settle(before, 20*time.Millisecond); n != before+1 {
		t.Errorf("with one goroutine parked: settled at %d, want %d", n, before+1)
	}
	close(release)
	if n := Settle(before, time.Second); n > before {
		t.Errorf("after release: settled at %d, want %d", n, before)
	}
}
