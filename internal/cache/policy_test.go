package cache_test

import (
	"testing"

	"repro/internal/cache"
)

// TestARCScanResistance is ARC's reason to exist: a frequently re-used
// working set survives a one-shot scan that would flush a plain LRU.
func TestARCScanResistance(t *testing.T) {
	m := &mockRepl{}
	runScan := func(alloc cache.Alloc) (survived int) {
		c := cache.New(cache.Config{Capacity: 8, Alloc: alloc}, m)
		// Establish a hot set of 6 blocks, touched repeatedly (ARC: T2).
		for round := 0; round < 3; round++ {
			for i := 0; i < 6; i++ {
				get(c, id(i), cache.NoOwner)
			}
		}
		// One sequential scan of 100 cold blocks.
		for i := 100; i < 200; i++ {
			get(c, id(i), cache.NoOwner)
		}
		c.CheckInvariants()
		for i := 0; i < 6; i++ {
			if c.Peek(id(i)) != nil {
				survived++
			}
		}
		return survived
	}
	if got := runScan(cache.GlobalLRU); got != 0 {
		t.Errorf("global-lru kept %d hot blocks through the scan, want 0 (sanity)", got)
	}
	if got := runScan(cache.ARC); got < 5 {
		t.Errorf("arc kept only %d/6 hot blocks through the scan, want >= 5", got)
	}
}

// TestARCGhostHitReadmitsToT2 checks the ghost protocol end to end: a
// block evicted once and missed again is recognized (its re-insert goes
// to the frequent side) and survives a subsequent one-touch flood that
// evicts the recency side first.
func TestARCGhostHitReadmitsToT2(t *testing.T) {
	m := &mockRepl{}
	c := cache.New(cache.Config{Capacity: 4, Alloc: cache.ARC}, m)
	// Fill, evict block 0 with one-touch traffic, then miss on 0 again:
	// the ghost hit readmits it to T2.
	for i := 0; i < 5; i++ {
		get(c, id(i), cache.NoOwner) // 0 is the first T1 victim
	}
	if c.Peek(id(0)) != nil {
		t.Fatal("block 0 should have been evicted")
	}
	get(c, id(0), cache.NoOwner) // ghost hit: back in, frequent side
	// A flood of fresh one-touch blocks must not displace the T2
	// resident while T1 victims exist.
	for i := 10; i < 16; i++ {
		get(c, id(i), cache.NoOwner)
	}
	c.CheckInvariants()
	if c.Peek(id(0)) == nil {
		t.Error("ghost-readmitted block evicted by one-touch flood; T2 not protecting it")
	}
}

// TestAWRPFrequencyBeatsRecency: under AWRP a block with a deep access
// history outlives a once-touched newer block even when the frequent one
// is older in pure recency terms.
func TestAWRPFrequencyBeatsRecency(t *testing.T) {
	m := &mockRepl{}
	c := cache.New(cache.Config{Capacity: 4, Alloc: cache.AWRP}, m)
	// Block 0: touched many times. Blocks 1-3: once each, later.
	get(c, id(0), cache.NoOwner)
	for i := 0; i < 10; i++ {
		get(c, id(0), cache.NoOwner)
	}
	for i := 1; i < 4; i++ {
		get(c, id(i), cache.NoOwner)
	}
	// Next miss must evict one of the once-touched blocks, not block 0 —
	// even though block 0 is now the recency-coldest resident.
	get(c, id(9), cache.NoOwner)
	c.CheckInvariants()
	if c.Peek(id(0)) == nil {
		t.Error("awrp evicted the high-frequency block; weight ranking not applied")
	}
}

// TestARCOverruleInterplay: a manager overrule under ARC transfers the
// eviction and the ghost to the chosen block, and the structures stay
// consistent.
func TestARCOverruleInterplay(t *testing.T) {
	c, m := setupOverrule(t, cache.ARC)
	hit, _ := get(c, id(3), 1) // miss: candidate overruled with block 2
	if hit {
		t.Fatal("expected miss")
	}
	c.CheckInvariants()
	if c.Peek(id(2)) != nil {
		t.Error("overrule target still cached")
	}
	found := false
	for _, e := range m.events {
		if e == "gone:f1:2" {
			found = true
		}
	}
	if !found {
		t.Error("no block_gone for the overruled choice")
	}
	// The evicted block's ghost is live: missing it again readmits it
	// without disturbing invariants.
	get(c, id(2), 1)
	c.CheckInvariants()
}
