package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("app%d/file%d.dat", i%7, i)
	}
	return keys
}

func members(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("tcp:127.0.0.1:%d", 4500+i)
	}
	return ms
}

// TestRingBalance: with ringReplicas vnodes, the per-node share of a
// 10k-key population stays within a 2x band of the fair share for every
// cluster size the bench sweep uses (and then some).
func TestRingBalance(t *testing.T) {
	keys := ringKeys(10000)
	for _, n := range []int{2, 3, 5, 8} {
		ms := members(n)
		r := NewRing(ms)
		counts := make(map[string]int)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		fair := len(keys) / n
		for _, m := range ms {
			c := counts[m]
			if c < fair/2 || c > fair*2 {
				t.Errorf("n=%d: member %s owns %d keys, fair share %d (want within [%d, %d])",
					n, m, c, fair, fair/2, fair*2)
			}
		}
		if len(counts) != n {
			t.Errorf("n=%d: only %d members own keys", n, len(counts))
		}
	}
}

// TestRingMinimalMovementLeave: removing one of N members remaps
// exactly the removed member's keys — every other key keeps its owner —
// and the remapped fraction is about 1/N.
func TestRingMinimalMovementLeave(t *testing.T) {
	keys := ringKeys(10000)
	for _, n := range []int{2, 3, 5, 8} {
		ms := members(n)
		r := NewRing(ms)
		gone := ms[n/2]
		after := r.Without(gone)
		moved := 0
		for _, k := range keys {
			before, now := r.Owner(k), after.Owner(k)
			if before != gone {
				if now != before {
					t.Fatalf("n=%d: key %q moved %s -> %s though %s left", n, k, before, now, gone)
				}
				continue
			}
			if now == gone {
				t.Fatalf("n=%d: key %q still owned by departed %s", n, k, gone)
			}
			moved++
		}
		frac := float64(moved) / float64(len(keys))
		want := 1.0 / float64(n)
		if frac < want/2 || frac > want*2 {
			t.Errorf("n=%d: leave remapped %.3f of keys, want ~%.3f", n, frac, want)
		}
	}
}

// TestRingMinimalMovementJoin: adding a member steals ~1/(N+1) of the
// keyspace and every stolen key lands on the new member.
func TestRingMinimalMovementJoin(t *testing.T) {
	keys := ringKeys(10000)
	for _, n := range []int{2, 3, 5, 8} {
		ms := members(n)
		r := NewRing(ms)
		joiner := "tcp:127.0.0.1:9999"
		after := r.With(joiner)
		moved := 0
		for _, k := range keys {
			before, now := r.Owner(k), after.Owner(k)
			if now == before {
				continue
			}
			if now != joiner {
				t.Fatalf("n=%d: key %q moved %s -> %s, not to joiner", n, k, before, now)
			}
			moved++
		}
		frac := float64(moved) / float64(len(keys))
		want := 1.0 / float64(n+1)
		if frac < want/2 || frac > want*2 {
			t.Errorf("n=%d: join remapped %.3f of keys, want ~%.3f", n, frac, want)
		}
	}
}

// TestRingDeterminism: rings built from the same members in any order
// route identically — nodes and clients must agree without talking.
func TestRingDeterminism(t *testing.T) {
	ms := members(5)
	r1 := NewRing(ms)
	r2 := NewRing([]string{ms[3], ms[0], ms[4], ms[2], ms[1]})
	for _, k := range ringKeys(1000) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("member order changed routing for %q: %s vs %s", k, r1.Owner(k), r2.Owner(k))
		}
	}
}

// TestRingEdgeCases: empty and single-member rings.
func TestRingEdgeCases(t *testing.T) {
	if got := NewRing(nil).Owner("x"); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	one := NewRing([]string{"tcp:a"})
	for _, k := range ringKeys(100) {
		if one.Owner(k) != "tcp:a" {
			t.Fatalf("single-member ring routed %q to %q", k, one.Owner(k))
		}
	}
	if !one.Has("tcp:a") || one.Has("tcp:b") {
		t.Error("Has misreports membership")
	}
	if one.Without("tcp:a").Len() != 0 {
		t.Error("Without did not empty the ring")
	}
	if one.With("tcp:a").Len() != 1 {
		t.Error("With duplicated an existing member")
	}
}
