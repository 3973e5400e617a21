package cache_test

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/fs"
	"repro/internal/sim"
)

// mockRepl is a scriptable ACM for driving the two-level protocol.
type mockRepl struct {
	managed map[int]bool
	// pick chooses the replacement; nil accepts the candidate.
	pick   func(candidate *cache.Buf, missing cache.BlockID) *cache.Buf
	events []string
}

func (m *mockRepl) NewBlock(b *cache.Buf)  { m.events = append(m.events, "new:"+b.ID.String()) }
func (m *mockRepl) BlockGone(b *cache.Buf) { m.events = append(m.events, "gone:"+b.ID.String()) }
func (m *mockRepl) BlockAccessed(b *cache.Buf, off, size int) {
	m.events = append(m.events, "acc:"+b.ID.String())
}
func (m *mockRepl) ReplaceBlock(candidate *cache.Buf, missing cache.BlockID) *cache.Buf {
	m.events = append(m.events, "repl:"+candidate.ID.String())
	if m.pick == nil {
		return candidate
	}
	return m.pick(candidate, missing)
}
func (m *mockRepl) PlaceholderUsed(missing cache.BlockID, pointed *cache.Buf) {
	m.events = append(m.events, fmt.Sprintf("phused:%v->%v", missing, pointed.ID))
}
func (m *mockRepl) Managed(owner int) bool { return m.managed[owner] }

func id(n int) cache.BlockID { return cache.BlockID{File: 1, Num: int32(n)} }

// get emulates the core's read path: lookup, then insert on miss.
func get(c *cache.Cache, blk cache.BlockID, owner int) (hit bool, victim *cache.Victim) {
	if b := c.Lookup(blk, 0, 8192); b != nil {
		return true, nil
	}
	_, v := c.Insert(blk, owner, 0)
	return false, v
}

func TestGlobalLRUBasics(t *testing.T) {
	c := cache.New(cache.Config{Capacity: 3, Alloc: cache.GlobalLRU}, nil)
	for i := 0; i < 3; i++ {
		if hit, _ := get(c, id(i), cache.NoOwner); hit {
			t.Fatalf("unexpected hit on first touch of %d", i)
		}
	}
	// Touch 0 so it becomes MRU; inserting 3 must evict 1.
	if hit, _ := get(c, id(0), cache.NoOwner); !hit {
		t.Fatal("expected hit on block 0")
	}
	_, v := get(c, id(3), cache.NoOwner)
	if v == nil || v.ID != id(1) {
		t.Fatalf("victim = %+v, want block 1", v)
	}
	order := c.GlobalOrder()
	want := []cache.BlockID{id(2), id(0), id(3)}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
	c.CheckInvariants()
}

func TestInsertCachedPanics(t *testing.T) {
	c := cache.New(cache.Config{Capacity: 2, Alloc: cache.GlobalLRU}, nil)
	c.Insert(id(1), cache.NoOwner, 0)
	defer func() {
		if recover() == nil {
			t.Error("double insert did not panic")
		}
	}()
	c.Insert(id(1), cache.NoOwner, 0)
}

func TestNewRequiresReplacerForTwoLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LRUSP without replacer did not panic")
		}
	}()
	cache.New(cache.Config{Capacity: 2, Alloc: cache.LRUSP}, nil)
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	cache.New(cache.Config{Capacity: 0, Alloc: cache.GlobalLRU}, nil)
}

func TestAllocStrings(t *testing.T) {
	// Every registered policy round-trips through the one shared
	// parser/printer pair; the canonical spellings are pinned so wire
	// protocols and flags stay stable.
	want := map[cache.Alloc]string{
		cache.GlobalLRU: "global-lru",
		cache.LRUSP:     "lru-sp",
		cache.LRUS:      "lru-s",
		cache.AllocLRU:  "alloc-lru",
		cache.ARC:       "arc",
		cache.AWRP:      "awrp",
	}
	names := cache.AllocNames()
	if len(names) != len(want) {
		t.Errorf("registry has %d policies %v, want %d", len(names), names, len(want))
	}
	for _, a := range names {
		got, err := cache.ParseAlloc(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlloc(%q.String()) = %v, %v; want round-trip", a, got, err)
		}
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%v.String() = %q, want %q", a, a.String(), s)
		}
	}
	if _, err := cache.ParseAlloc("no-such-policy"); !errors.Is(err, cache.ErrUnknownAlloc) {
		t.Errorf("ParseAlloc(unknown) = %v, want ErrUnknownAlloc", err)
	}
	if _, err := cache.ParseAlloc(""); !errors.Is(err, cache.ErrUnknownAlloc) {
		t.Errorf("ParseAlloc(\"\") = %v, want ErrUnknownAlloc (wire callers must be explicit)", err)
	}
}

func TestManagerConsultedOnlyWhenManaged(t *testing.T) {
	m := &mockRepl{managed: map[int]bool{7: true}}
	c := cache.New(cache.Config{Capacity: 2, Alloc: cache.LRUSP}, m)
	get(c, id(0), 3) // unmanaged owner
	get(c, id(1), 7) // managed owner
	if len(m.events) != 1 || m.events[0] != "new:f1:1" {
		t.Fatalf("events = %v, want only new for managed block", m.events)
	}
	// Miss: candidate is block 0 (unmanaged) — no consultation.
	get(c, id(2), 7)
	for _, e := range m.events {
		if e == "repl:f1:0" {
			t.Error("unmanaged candidate was consulted")
		}
	}
}

// setupOverrule builds a 3-block cache owned by manager 1 where the manager
// always overrules the candidate with block 2 (its most recent block).
func setupOverrule(t *testing.T, alloc cache.Alloc) (*cache.Cache, *mockRepl) {
	t.Helper()
	m := &mockRepl{managed: map[int]bool{1: true}}
	c := cache.New(cache.Config{Capacity: 3, Alloc: alloc}, m)
	for i := 0; i < 3; i++ {
		get(c, id(i), 1)
	}
	m.pick = func(candidate *cache.Buf, missing cache.BlockID) *cache.Buf {
		if b := c.Peek(id(2)); b != nil && b != candidate {
			return b
		}
		return candidate
	}
	return c, m
}

func TestOverruleSwapsUnderLRUSP(t *testing.T) {
	c, _ := setupOverrule(t, cache.LRUSP)
	// Miss on 3: candidate 0, manager gives up 2 instead. Swapping puts
	// 0 where 2 was (MRU-ish); placeholder for 2 points at 0.
	_, v := get(c, id(3), 1)
	if v.ID != id(2) {
		t.Fatalf("victim %v, want block 2", v.ID)
	}
	order := c.GlobalOrder()
	// Before: [0 1 2]. Swap 0 and 2: [2 1 0] then evict 2 -> [1 0], then
	// insert 3 at MRU -> [1 0 3].
	want := []cache.BlockID{id(1), id(0), id(3)}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (swap missing?)", order, want)
		}
	}
	if c.Placeholders() != 1 {
		t.Errorf("placeholders = %d, want 1", c.Placeholders())
	}
	if st := c.Stats(); st.Overrules != 1 {
		t.Errorf("overrules = %d, want 1", st.Overrules)
	}
	c.CheckInvariants()
}

func TestOverruleNoSwapUnderAllocLRU(t *testing.T) {
	c, _ := setupOverrule(t, cache.AllocLRU)
	_, v := get(c, id(3), 1)
	if v.ID != id(2) {
		t.Fatalf("victim %v, want block 2", v.ID)
	}
	// No swap: 0 stays at the LRU end. [0 1] + 3 -> [0 1 3].
	order := c.GlobalOrder()
	want := []cache.BlockID{id(0), id(1), id(3)}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (unexpected swap)", order, want)
		}
	}
	if c.Placeholders() != 0 {
		t.Errorf("ALLOC-LRU built %d placeholders", c.Placeholders())
	}
}

func TestLRUSSwapsButNoPlaceholder(t *testing.T) {
	c, _ := setupOverrule(t, cache.LRUS)
	get(c, id(3), 1)
	order := c.GlobalOrder()
	want := []cache.BlockID{id(1), id(0), id(3)}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Placeholders() != 0 {
		t.Errorf("LRU-S built %d placeholders", c.Placeholders())
	}
}

func TestPlaceholderRedirectsCandidate(t *testing.T) {
	c, m := setupOverrule(t, cache.LRUSP)
	get(c, id(3), 1) // overrule: 2 evicted, placeholder 2 -> block 0
	m.pick = nil     // manager now accepts candidates
	// Miss on 2 again: placeholder makes block 0 the candidate even
	// though the LRU end is block 1.
	_, v := get(c, id(2), 1)
	if v.ID != id(0) {
		t.Fatalf("victim %v, want block 0 via placeholder", v.ID)
	}
	found := false
	for _, e := range m.events {
		if e == "phused:f1:2->f1:0" {
			found = true
		}
	}
	if !found {
		t.Errorf("PlaceholderUsed not signalled; events %v", m.events)
	}
	if st := c.Stats(); st.PlaceholderHits != 1 {
		t.Errorf("PlaceholderHits = %d, want 1", st.PlaceholderHits)
	}
	if os := c.Owner(1); os.Mistakes != 1 || os.Decisions != 1 {
		t.Errorf("owner stats = %+v, want 1 decision 1 mistake", os)
	}
	if c.Placeholders() != 0 {
		t.Errorf("placeholder not consumed")
	}
	c.CheckInvariants()
}

func TestPlaceholderDiesWithPointee(t *testing.T) {
	c, m := setupOverrule(t, cache.LRUSP)
	get(c, id(3), 1) // placeholder 2 -> block 0
	m.pick = nil
	// Evict block 0 by normal pressure: after the swap the order is
	// [1 0 3]; miss on 4 evicts 1, miss on 5 evicts 0.
	get(c, id(4), 1)
	get(c, id(5), 1)
	if b := c.Peek(id(0)); b != nil {
		t.Fatal("block 0 still cached; test setup wrong")
	}
	if c.Placeholders() != 0 {
		t.Errorf("placeholder survived its pointee")
	}
	// A miss on 2 now takes the plain LRU path without PlaceholderUsed.
	before := len(m.events)
	get(c, id(2), 1)
	for _, e := range m.events[before:] {
		if e == "phused:f1:2->f1:0" {
			t.Error("stale placeholder used")
		}
	}
	c.CheckInvariants()
}

func TestPlaceholderConsumedWhenCacheNotFull(t *testing.T) {
	c, m := setupOverrule(t, cache.LRUSP)
	get(c, id(3), 1) // placeholder 2 -> 0
	m.pick = nil
	// Free a slot, then re-read 2: no eviction, but the placeholder must
	// still be consumed and the mistake charged.
	c.InvalidateFile(99) // no-op, different file
	n := c.InvalidateFile(1)
	if n != 3 {
		t.Fatalf("invalidated %d, want 3", n)
	}
	// All placeholders died with their pointees.
	if c.Placeholders() != 0 {
		t.Fatal("placeholders survived invalidation")
	}
	// Rebuild a placeholder scenario with spare room.
	get(c, id(10), 1)
	get(c, id(11), 1)
	get(c, id(12), 1)
	m.pick = func(candidate *cache.Buf, missing cache.BlockID) *cache.Buf {
		if b := c.Peek(id(12)); b != nil && b != candidate {
			return b
		}
		return candidate
	}
	get(c, id(13), 1) // evict 12, placeholder 12 -> candidate
	m.pick = nil
	c.InvalidateFile(1) // make room... and kill placeholders again
	if c.Placeholders() != 0 {
		t.Fatal("placeholder should have died")
	}
	c.CheckInvariants()
}

func TestMistakeChargedWithoutEviction(t *testing.T) {
	// Build a placeholder, then open free slots (deleting a third,
	// unrelated file) so the pointee and the placeholder survive, and
	// re-read the overruled block: the mistake must be charged with no
	// eviction.
	m := &mockRepl{managed: map[int]bool{1: true}}
	c := cache.New(cache.Config{Capacity: 3, Alloc: cache.LRUSP}, m)
	pointeeBlk := cache.BlockID{File: 2, Num: 0}
	fill0 := cache.BlockID{File: 3, Num: 0}
	overruled := id(1) // file 1
	get(c, pointeeBlk, 1)
	get(c, fill0, 1)
	get(c, overruled, 1)
	m.pick = func(candidate *cache.Buf, missing cache.BlockID) *cache.Buf {
		if b := c.Peek(overruled); b != nil && b != candidate {
			return b
		}
		return candidate
	}
	fill1 := cache.BlockID{File: 3, Num: 1}
	get(c, fill1, 1) // candidate pointeeBlk; manager gives up overruled
	if c.Placeholders() != 1 {
		t.Fatalf("placeholders = %d, want 1", c.Placeholders())
	}
	m.pick = nil
	c.InvalidateFile(3) // frees fill blocks; pointee (file 2) survives
	if c.Placeholders() != 1 {
		t.Fatalf("placeholder should survive, pointee still cached")
	}
	evBefore := c.Stats().Evictions
	get(c, overruled, 1) // free slot available: no eviction, placeholder consumed
	if c.Stats().Evictions != evBefore {
		t.Error("unexpected eviction with free slots")
	}
	if c.Placeholders() != 0 {
		t.Error("placeholder not consumed on insert into free slot")
	}
	if os := c.Owner(1); os.Mistakes != 1 {
		t.Errorf("mistakes = %d, want 1", os.Mistakes)
	}
	c.CheckInvariants()
}

func TestInvalidateFileDropsItsPlaceholders(t *testing.T) {
	// Deleting a file also deletes placeholders *for* that file's
	// blocks, even when the pointee belongs to another file.
	c, _ := setupOverrule(t, cache.LRUSP)
	get(c, id(3), 1) // placeholder for f1:2 -> block f1:0
	if c.Placeholders() != 1 {
		t.Fatal("setup: expected one placeholder")
	}
	c.InvalidateFile(1)
	if c.Placeholders() != 0 {
		t.Error("placeholder for removed file survived")
	}
	c.CheckInvariants()
}

func TestBusyBlocksSkipped(t *testing.T) {
	c := cache.New(cache.Config{Capacity: 2, Alloc: cache.GlobalLRU}, nil)
	b0, _ := c.Insert(id(0), cache.NoOwner, 0)
	b0.ValidAt = 100 * sim.Millisecond // I/O in flight
	c.Insert(id(1), cache.NoOwner, 0)
	// At t=0, block 0 is busy: the victim must be block 1 even though 0
	// is at the LRU end.
	_, v := c.Insert(id(2), cache.NoOwner, 0)
	if v.ID != id(1) {
		t.Errorf("victim %v, want busy block skipped (block 1)", v.ID)
	}
	// After the I/O completes block 0 is fair game.
	_, v = c.Insert(id(3), cache.NoOwner, 200*sim.Millisecond)
	if v.ID != id(0) {
		t.Errorf("victim %v, want block 0 once idle", v.ID)
	}
}

func TestValidateAlternativePanics(t *testing.T) {
	cases := []struct {
		name string
		pick func(c *cache.Cache) func(*cache.Buf, cache.BlockID) *cache.Buf
	}{
		{"wrong owner", func(c *cache.Cache) func(*cache.Buf, cache.BlockID) *cache.Buf {
			return func(cand *cache.Buf, _ cache.BlockID) *cache.Buf {
				return c.Peek(id(9)) // owned by 2
			}
		}},
		{"uncached", func(c *cache.Cache) func(*cache.Buf, cache.BlockID) *cache.Buf {
			return func(cand *cache.Buf, _ cache.BlockID) *cache.Buf {
				return &cache.Buf{ID: id(42), Owner: cand.Owner}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &mockRepl{managed: map[int]bool{1: true, 2: true}}
			c := cache.New(cache.Config{Capacity: 3, Alloc: cache.LRUSP}, m)
			get(c, id(0), 1)
			get(c, id(1), 1)
			get(c, id(9), 2)
			m.pick = tc.pick(c)
			defer func() {
				if recover() == nil {
					t.Error("bad alternative did not panic")
				}
			}()
			get(c, id(5), 1)
		})
	}
}

func TestRevocation(t *testing.T) {
	m := &mockRepl{managed: map[int]bool{1: true}}
	c := cache.New(cache.Config{
		Capacity: 3,
		Alloc:    cache.LRUSP,
		Revoke:   true,
	}, m)
	// A maximally foolish manager: whenever consulted it gives up the
	// hot block that is about to be re-read, while the kernel's
	// candidate (a cold streaming block never touched again) was the
	// right choice. Every overrule is caught by a placeholder before
	// the kept block is referenced again.
	hot := id(1000)
	m.pick = func(cand *cache.Buf, missing cache.BlockID) *cache.Buf {
		if b := c.Peek(hot); b != nil && b != cand && !b.Busy(0) {
			return b
		}
		return cand
	}
	for i := 0; i < 300 && !c.Revoked(1); i++ {
		get(c, id(i), 1) // cold stream
		get(c, hot, 1)   // hot block, re-read constantly
	}
	if !c.Revoked(1) {
		os := c.Owner(1)
		t.Fatalf("foolish manager not revoked (decisions %d, mistakes %d)", os.Decisions, os.Mistakes)
	}
	if c.Stats().Revocations != 1 {
		t.Errorf("Revocations = %d, want 1", c.Stats().Revocations)
	}
	// After revocation the manager is no longer consulted.
	before := len(m.events)
	for i := 0; i < 6; i++ {
		get(c, id(i), 1)
	}
	for _, e := range m.events[before:] {
		if len(e) >= 4 && e[:4] == "repl" {
			t.Error("revoked manager still consulted")
		}
	}
	c.CheckInvariants()
}

func TestDirtyTracking(t *testing.T) {
	c := cache.New(cache.Config{Capacity: 4, Alloc: cache.GlobalLRU}, nil)
	b0, _ := c.Insert(id(0), cache.NoOwner, 0)
	b1, _ := c.Insert(id(1), cache.NoOwner, 0)
	c.MarkDirty(b0, 10*sim.Second)
	c.MarkDirty(b0, 20*sim.Second) // second write must not bump DirtyAt
	c.MarkDirty(b1, 40*sim.Second)
	old := c.DirtyOlderThan(30 * sim.Second)
	if len(old) != 1 || old[0].ID != id(0) {
		t.Errorf("DirtyOlderThan found %d blocks, want just block 0", len(old))
	}
	c.Clean(b0)
	if len(c.DirtyOlderThan(100*sim.Second)) != 1 {
		t.Error("Clean did not clear dirty state")
	}
	// Evicting a dirty block reports it in the victim.
	c.Insert(id(2), cache.NoOwner, 0)
	c.Insert(id(3), cache.NoOwner, 0)
	_, v := c.Insert(id(4), cache.NoOwner, 0) // evicts 0 (clean)
	if v.Dirty {
		t.Error("clean victim reported dirty")
	}
	_, v = c.Insert(id(5), cache.NoOwner, 0) // evicts 1 (dirty)
	if !v.Dirty || v.ID != id(1) {
		t.Errorf("victim %+v, want dirty block 1", v)
	}
}

func TestInvalidateFile(t *testing.T) {
	m := &mockRepl{managed: map[int]bool{1: true}}
	c := cache.New(cache.Config{Capacity: 6, Alloc: cache.LRUSP}, m)
	for i := 0; i < 3; i++ {
		get(c, cache.BlockID{File: 5, Num: int32(i)}, 1)
		get(c, cache.BlockID{File: 6, Num: int32(i)}, 1)
	}
	n := c.InvalidateFile(5)
	if n != 3 || c.Len() != 3 {
		t.Errorf("invalidated %d (len %d), want 3 (3)", n, c.Len())
	}
	gone := 0
	for _, e := range m.events {
		if len(e) >= 5 && e[:5] == "gone:" {
			gone++
		}
	}
	if gone != 3 {
		t.Errorf("BlockGone called %d times, want 3", gone)
	}
	c.CheckInvariants()
}

// TestObliviousEqualsGlobalLRU verifies the paper's first allocation
// criterion by construction: a process that never overrules sees exactly
// the global LRU policy — identical miss counts and identical eviction
// order on any trace.
func TestObliviousEqualsGlobalLRU(t *testing.T) {
	trace := func(seed uint64, n int) []cache.BlockID {
		rng := sim.NewRand(seed)
		ids := make([]cache.BlockID, n)
		for i := range ids {
			ids[i] = cache.BlockID{File: fs.FileID(1 + rng.Intn(3)), Num: int32(rng.Intn(40))}
		}
		return ids
	}
	run := func(alloc cache.Alloc, ids []cache.BlockID) (int64, []cache.BlockID) {
		var repl cache.Replacer
		if alloc.String() != cache.GlobalLRU.String() {
			// Managed but always accepting the kernel's choice.
			repl = &mockRepl{managed: map[int]bool{1: true}}
		}
		c := cache.New(cache.Config{Capacity: 20, Alloc: alloc}, repl)
		var evictions []cache.BlockID
		for _, blk := range ids {
			if b := c.Lookup(blk, 0, 8192); b != nil {
				continue
			}
			_, v := c.Insert(blk, 1, 0)
			if v != nil {
				evictions = append(evictions, v.ID)
			}
		}
		c.CheckInvariants()
		return c.Stats().Misses, evictions
	}
	f := func(seed uint64) bool {
		ids := trace(seed, 2000)
		for _, alloc := range []cache.Alloc{cache.LRUSP, cache.LRUS, cache.AllocLRU} {
			mBase, evBase := run(cache.GlobalLRU, ids)
			mAlt, evAlt := run(alloc, ids)
			if mBase != mAlt || len(evBase) != len(evAlt) {
				return false
			}
			for i := range evBase {
				if evBase[i] != evAlt[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickInvariants pounds the cache with random managed operations,
// including overruling managers, and checks structural invariants
// throughout.
func TestQuickInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		m := &mockRepl{managed: map[int]bool{1: true, 2: true}}
		c := cache.New(cache.Config{Capacity: 15, Alloc: cache.LRUSP}, m)
		// Manager 1 overrules randomly with one of its own blocks.
		m.pick = func(cand *cache.Buf, missing cache.BlockID) *cache.Buf {
			if cand.Owner != 1 || rng.Intn(2) == 0 {
				return cand
			}
			// Scan for any same-owner block.
			for _, bid := range c.GlobalOrder() {
				b := c.Peek(bid)
				if b.Owner == cand.Owner && !b.Busy(0) && rng.Intn(3) == 0 {
					return b
				}
			}
			return cand
		}
		for i := 0; i < 3000; i++ {
			owner := 1 + rng.Intn(2)
			blk := cache.BlockID{File: fs.FileID(owner), Num: int32(rng.Intn(30))}
			if b := c.Lookup(blk, 0, 8192); b == nil {
				c.Insert(blk, owner, 0)
			}
			if i%500 == 499 {
				c.CheckInvariants()
			}
			if rng.Intn(200) == 0 {
				c.InvalidateFile(fs.FileID(1 + rng.Intn(2)))
				c.CheckInvariants()
			}
		}
		c.CheckInvariants()
		return c.Len() <= c.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBlockIDString(t *testing.T) {
	if got := id(7).String(); got != "f1:7" {
		t.Errorf("String = %q", got)
	}
}

func TestAllocAccessorAndZeroValue(t *testing.T) {
	c := cache.New(cache.Config{Capacity: 2, Alloc: cache.GlobalLRU}, nil)
	if c.Alloc() != cache.GlobalLRU {
		t.Error("Alloc accessor wrong")
	}
	// The zero value means the default policy, as it did when Alloc was
	// an integer enum with GlobalLRU = 0.
	z := cache.New(cache.Config{Capacity: 2}, nil)
	if z.Alloc() != cache.GlobalLRU {
		t.Errorf("zero-value Alloc built %q, want global-lru", z.Alloc())
	}
	if got := cache.Alloc("").String(); got != "global-lru" {
		t.Errorf("zero Alloc String = %q, want global-lru", got)
	}
}

func TestLruScanAllBusyFallback(t *testing.T) {
	// Every buffer mid-I/O: the scan must still yield a victim rather
	// than failing.
	c := cache.New(cache.Config{Capacity: 2, Alloc: cache.GlobalLRU}, nil)
	b0, _ := c.Insert(id(0), cache.NoOwner, 0)
	b1, _ := c.Insert(id(1), cache.NoOwner, 0)
	b0.ValidAt, b1.ValidAt = 1<<40, 1<<40
	_, v := c.Insert(id(2), cache.NoOwner, 0)
	if v == nil {
		t.Fatal("no victim with an all-busy cache")
	}
	c.CheckInvariants()
}

func TestRecordDecisionSkipsNoOwner(t *testing.T) {
	// Structural: decisions and mistakes attributed to NoOwner are
	// dropped rather than creating a phantom owner record.
	c := cache.New(cache.Config{Capacity: 2, Alloc: cache.GlobalLRU}, nil)
	if c.Revoked(cache.NoOwner) {
		t.Error("NoOwner revoked")
	}
	if c.Owner(5).Decisions != 0 {
		t.Error("fresh owner has decisions")
	}
}

func TestOwnerNegativeIDsShareScratchRecord(t *testing.T) {
	// Negative ids all resolve to one persistent scratch record, so
	// counters recorded against NoOwner accumulate instead of vanishing
	// into a throwaway allocation.
	c := cache.New(cache.Config{Capacity: 2, Alloc: cache.GlobalLRU}, nil)
	c.Owner(cache.NoOwner).Mistakes++
	if got := c.Owner(-7).Mistakes; got != 1 {
		t.Errorf("scratch Mistakes = %d, want 1", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Owner(cache.NoOwner).Decisions++
	})
	if allocs != 0 {
		t.Errorf("Owner(NoOwner) allocated %.2f/op, want 0", allocs)
	}
}

func TestVindicationCounted(t *testing.T) {
	c, m := setupOverrule(t, cache.LRUSP)
	get(c, id(3), 1) // overrule: placeholder for 2 -> block 0
	m.pick = nil
	// Touch the kept block (0): the manager's decision is vindicated.
	if hit, _ := get(c, id(0), 1); !hit {
		t.Fatal("expected hit on kept block")
	}
	st := c.Stats()
	if st.Vindicated != 1 {
		t.Errorf("Vindicated = %d, want 1", st.Vindicated)
	}
	if c.Placeholders() != 0 {
		t.Error("placeholder survived vindication")
	}
	// The overruled block's return is now an ordinary miss: no mistake.
	get(c, id(2), 1)
	if os := c.Owner(1); os.Mistakes != 0 {
		t.Errorf("Mistakes = %d after vindication, want 0", os.Mistakes)
	}
	c.CheckInvariants()
}

func TestManagerReturningNilAcceptsCandidate(t *testing.T) {
	m := &mockRepl{managed: map[int]bool{1: true}}
	c := cache.New(cache.Config{Capacity: 2, Alloc: cache.LRUSP}, m)
	get(c, id(0), 1)
	get(c, id(1), 1)
	m.pick = func(*cache.Buf, cache.BlockID) *cache.Buf { return nil }
	_, v := get(c, id(2), 1)
	if v == nil || v.ID != id(0) {
		t.Errorf("nil answer did not fall back to the candidate: %+v", v)
	}
	if c.Stats().Overrules != 0 {
		t.Error("nil answer counted as an overrule")
	}
}

// mirrorRepl tracks residency purely from NewBlock/BlockGone, as the paper
// says upcall-based user-level handlers could ("user-level handlers could
// know which blocks are in cache by keeping track of new_block and
// block_gone calls").
type mirrorRepl struct {
	resident map[cache.BlockID]bool
}

func (m *mirrorRepl) NewBlock(b *cache.Buf)                     { m.resident[b.ID] = true }
func (m *mirrorRepl) BlockGone(b *cache.Buf)                    { delete(m.resident, b.ID) }
func (m *mirrorRepl) BlockAccessed(*cache.Buf, int, int)        {}
func (m *mirrorRepl) PlaceholderUsed(cache.BlockID, *cache.Buf) {}
func (m *mirrorRepl) Managed(owner int) bool                    { return owner == 1 }
func (m *mirrorRepl) ReplaceBlock(c *cache.Buf, _ cache.BlockID) *cache.Buf {
	return c
}

// TestInterfaceSufficientForResidencyTracking verifies the Section 4
// claim: the five-call interface tells a manager exactly which of its
// blocks are cached at all times.
func TestInterfaceSufficientForResidencyTracking(t *testing.T) {
	m := &mirrorRepl{resident: make(map[cache.BlockID]bool)}
	c := cache.New(cache.Config{Capacity: 12, Alloc: cache.LRUSP}, m)
	rng := sim.NewRand(77)
	for i := 0; i < 5000; i++ {
		blk := cache.BlockID{File: fs.FileID(1 + rng.Intn(2)), Num: int32(rng.Intn(30))}
		get(c, blk, 1)
		if rng.Intn(100) == 0 {
			c.InvalidateFile(fs.FileID(1 + rng.Intn(2)))
		}
	}
	// The mirror must match the cache's actual contents exactly.
	actual := make(map[cache.BlockID]bool)
	for _, id := range c.GlobalOrder() {
		if c.Peek(id).Owner == 1 {
			actual[id] = true
		}
	}
	if len(actual) != len(m.resident) {
		t.Fatalf("mirror has %d blocks, cache has %d", len(m.resident), len(actual))
	}
	for id := range actual {
		if !m.resident[id] {
			t.Errorf("cache holds %v but mirror does not", id)
		}
	}
}
