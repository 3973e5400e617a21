package cache_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/cache"
)

func slotCache(capacity int) *cache.Cache {
	return cache.New(cache.Config{Capacity: capacity, Alloc: cache.GlobalLRU, SlotBytes: 64}, nil)
}

// TestSlotExclusiveDataUnpinned: with no pins the kernel writes a block's
// slot in place — no copy, same storage.
func TestSlotExclusiveDataUnpinned(t *testing.T) {
	c := slotCache(2)
	b, _ := c.Insert(id(0), cache.NoOwner, 0)
	if b.Slot == nil {
		t.Fatal("SlotBytes > 0 but inserted buffer has no slot")
	}
	s := b.Slot
	data, cowed := c.ExclusiveData(b)
	if cowed {
		t.Fatal("unpinned slot copied on write")
	}
	if !s.Backs(data) {
		t.Fatal("ExclusiveData returned storage other than the slot's")
	}
	c.CheckInvariants()
}

// TestSlotCopyOnWrite: writing a pinned block moves it to a fresh slot
// and freezes the pinned bytes for the in-flight reader — the rule that
// keeps zero-copy responses byte-identical to read time.
func TestSlotCopyOnWrite(t *testing.T) {
	c := slotCache(2)
	b, _ := c.Insert(id(0), cache.NoOwner, 0)
	old := b.Slot
	copy(old.Data(), bytes.Repeat([]byte{0xaa}, 64))

	old.Pin() // a response frame in flight
	data, cowed := c.ExclusiveData(b)
	if !cowed {
		t.Fatal("pinned slot mutated in place")
	}
	if old.Backs(data) {
		t.Fatal("copy-on-write returned the pinned storage")
	}
	if !b.Slot.Backs(data) || b.Slot == old {
		t.Fatal("block not repointed at the fresh slot")
	}
	if !bytes.Equal(data, old.Data()) {
		t.Fatal("fresh slot did not inherit the block's bytes")
	}
	data[0] = 0x55
	if old.Data()[0] != 0xaa {
		t.Fatal("write leaked into the frozen pinned slot")
	}
	old.Unpin()
	c.CheckInvariants()
}

// TestSlotZombieRecycle: a slot freed while pinned (clean eviction under
// an in-flight response) parks as a zombie and returns to service once
// its pin drains — the arena does not leak to the heap.
func TestSlotZombieRecycle(t *testing.T) {
	c := slotCache(1)
	b, _ := c.Insert(id(0), cache.NoOwner, 0)
	s := b.Slot
	s.Pin()
	if _, v := c.Insert(id(1), cache.NoOwner, 0); v != nil && v.Slot != nil {
		t.Fatal("clean victim must not detach its slot")
	}
	// The evicted block's slot was pinned, so the new block's slot had to
	// come from somewhere else (the heap fallback).
	if b2 := c.Peek(id(1)); b2.Slot == s {
		t.Fatal("pinned slot reissued while pinned")
	}
	s.Unpin()
	// With the pin drained, the zombie must be swept back into service.
	// Dirty the current block so its eviction detaches its slot into the
	// victim — the next allocation then finds the free list empty and
	// must recover s from the zombie list.
	c.MarkDirty(c.Peek(id(1)), 0)
	b3, v := c.Insert(id(2), cache.NoOwner, 0)
	if v == nil || v.Slot == nil {
		t.Fatal("dirty victim did not detach its slot")
	}
	if b3.Slot != s {
		t.Fatal("drained zombie not swept back into service")
	}
	c.ReleaseSlot(v.Slot)
	c.CheckInvariants()
}

// TestSlotDirtyVictimDetaches: evicting a dirty block hands its slot to
// the caller via Victim.Slot (the write-back path owns it until
// ReleaseSlot), and the bytes ride along.
func TestSlotDirtyVictimDetaches(t *testing.T) {
	c := slotCache(1)
	b, _ := c.Insert(id(0), cache.NoOwner, 0)
	copy(b.Slot.Data(), []byte("dirty-bytes"))
	c.MarkDirty(b, 0)
	_, v := c.Insert(id(1), cache.NoOwner, 0)
	if v == nil || !v.Dirty {
		t.Fatal("expected a dirty victim")
	}
	if v.Slot == nil {
		t.Fatal("dirty victim did not detach its slot")
	}
	if !bytes.HasPrefix(v.Slot.Data(), []byte("dirty-bytes")) {
		t.Fatal("victim slot lost the dirty bytes")
	}
	c.ReleaseSlot(v.Slot)
	c.CheckInvariants()
}

// TestSlotHeapGivenBack: a slot made past the pool, because a dirty
// victim's slot was detached for its write-back, goes back to the
// garbage collector once the pool has a free slot to take its place —
// the pool, not a heap overflow, is what a cache settles on.
func TestSlotHeapGivenBack(t *testing.T) {
	c := slotCache(2)
	for i := 0; i < 2; i++ {
		b, _ := c.Insert(id(i), cache.NoOwner, 0)
		c.MarkDirty(b, 0)
	}
	heapSlots := func() int { return c.Slots() - 2 } // the pool is made
	// Block 0's slot leaves with its victim; block 2 takes a heap slot.
	_, v0 := c.Insert(id(2), cache.NoOwner, 0)
	if v0 == nil || v0.Slot == nil {
		t.Fatal("dirty victim did not detach its slot")
	}
	if got := heapSlots(); got != 1 {
		t.Fatalf("%d heap slots with a victim detached from a full pool, want 1", got)
	}
	c.ReleaseSlot(v0.Slot) // the write-back landed: a pool slot is free
	// Block 1's dirty eviction takes that pool slot for block 3.
	_, v1 := c.Insert(id(3), cache.NoOwner, 0)
	c.ReleaseSlot(v1.Slot)
	if got := heapSlots(); got != 1 {
		t.Fatalf("%d heap slots while block 2 still holds one, want 1", got)
	}
	// Block 2 is clean: its eviction gives the heap slot back and block 4
	// takes the free pool slot.
	if _, v := c.Insert(id(4), cache.NoOwner, 0); v == nil || v.Slot != nil {
		t.Fatal("want a clean victim")
	}
	if got := heapSlots(); got != 0 {
		t.Errorf("%d heap slots once the pool had a free slot again, want 0", got)
	}
	c.CheckInvariants()
}

// TestSlotPoolMadeOnDemand: a cache makes no slot ahead of need. New
// over a large capacity with 8 KiB slots allocates a small fraction of
// the pool's bytes — what it does allocate is the buffer arena and the
// index — and after caching k blocks the cache holds exactly k slots,
// all of them pool slots.
func TestSlotPoolMadeOnDemand(t *testing.T) {
	const capacity, slotBytes = 4096, 8 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := cache.New(cache.Config{Capacity: capacity, Alloc: cache.GlobalLRU, SlotBytes: slotBytes}, nil)
	runtime.ReadMemStats(&after)
	pool := uint64(capacity * slotBytes)
	if got := after.TotalAlloc - before.TotalAlloc; got > pool/10 {
		t.Errorf("New allocated %d bytes, want at most a tenth of the %d-byte pool", got, pool)
	}
	if got := c.Slots(); got != 0 {
		t.Fatalf("a new cache holds %d slots, want 0", got)
	}
	const k = 100
	for i := 0; i < k; i++ {
		c.Insert(id(i), cache.NoOwner, 0)
	}
	if got := c.Slots(); got != k {
		t.Errorf("after caching %d blocks the cache holds %d slots, want %d", k, got, k)
	}
	c.CheckInvariants()
}
