// slot.go — refcounted data slots: the arena that makes zero-copy serving
// safe.
//
// The simulation never stores block *contents*, so the DES runs a Cache
// with SlotBytes == 0 and none of this exists. The live server does store
// contents, and wants to hand them to the socket writer without copying:
// a response frame references the slot's bytes directly and a vectored
// write pushes them to the kernel. That reference outlives the kernel
// operation that created it, so the cache needs an answer to "what if the
// block is evicted, or written, while the writer still reads the bytes?"
//
// The answer is a pin count plus copy-on-write:
//
//   - The kernel's holder pins a slot (refcount) when it enqueues a
//     response descriptor; the session writer unpins after the vectored
//     write returns. Pin/Unpin are the only cross-goroutine edges and are
//     atomic, so the unpin that drops the count to zero happens-before
//     any later mutation the kernel performs after observing zero.
//   - Mutation goes through ExclusiveData: if the slot is pinned, the
//     block's bytes move to a fresh slot and the pinned one is left
//     frozen for the in-flight frames — responses always carry the bytes
//     as they were when the read was served, which is what keeps the wire
//     server byte-identical to the discrete-event oracle.
//   - Freeing a pinned slot (eviction, file invalidation, session
//     teardown) parks it on a zombie list; the next allocation sweeps
//     zombies whose pins have drained back onto the free list.
//
// A cache makes a slot the first time it needs one. The first Capacity
// it makes are its pool, recycled for its life (every cached block owns
// one). Demand rises above the pool only while slots are held outside
// the cache — write-behind's detached dirty victims, which a shard holds
// up to min(depth, 64) + depth of, and pinned or frozen zombies, bounded
// by the frames the sessions have in flight. Then allocSlot makes a heap
// slot, which goes back to the garbage collector the first time it is
// released while the free list has a slot to offer in its place: at
// most one heap slot ever waits there, and once the extra demand has
// passed the cache holds its pool and at most that one slot.

package cache

import "sync/atomic"

// Slot is one block's worth of cached bytes, refcounted so response
// frames can reference it after the kernel operation that served them
// returns. The kernel's holder owns the data; writers only Pin, read,
// and Unpin.
type Slot struct {
	refs atomic.Int32
	heap bool // made past the pool: given back, not recycled (putSlot)
	data []byte
}

// Data returns the slot's bytes. The caller must hold a pin (or hold the
// kernel) for the bytes to be stable.
func (s *Slot) Data() []byte { return s.data }

// Pin takes a reference: the bytes will not be mutated or recycled until
// the matching Unpin. Called by the kernel's holder before handing the
// slot to a session writer.
func (s *Slot) Pin() { s.refs.Add(1) }

// Unpin drops a reference. Safe from any goroutine; the final Unpin
// publishes (via the atomic) that readers are done, so a kernel-side
// refs==0 check licenses mutation.
func (s *Slot) Unpin() {
	if s.refs.Add(-1) < 0 {
		panic("cache: slot unpinned below zero")
	}
}

// Pinned reports whether any reader still holds the slot (racy by
// nature; exact only while holding the kernel).
func (s *Slot) Pinned() bool { return s.refs.Load() != 0 }

// Backs reports whether data is this slot's storage — the serve path's
// check that a callback's bytes are still the cached block's current
// slot (a detached fill or a copied-on-write block fails it).
func (s *Slot) Backs(data []byte) bool {
	return len(data) > 0 && len(s.data) > 0 && &s.data[0] == &data[0]
}

// allocSlot returns a free slot, sweeping drained zombies first. With
// none free it makes one: a pool slot while the cache has made fewer
// than Capacity, a heap slot once every pool slot is cached, detached
// for a write-back or pinned.
func (c *Cache) allocSlot() *Slot {
	if len(c.freeSlots) == 0 {
		c.sweepZombies()
	}
	if n := len(c.freeSlots); n > 0 {
		s := c.freeSlots[n-1]
		c.freeSlots[n-1] = nil
		c.freeSlots = c.freeSlots[:n-1]
		return s
	}
	heap := c.pooled == c.cfg.Capacity
	if heap {
		c.heapSlots++
	} else {
		c.pooled++
	}
	return &Slot{heap: heap, data: make([]byte, c.cfg.SlotBytes)}
}

// putSlot returns an unpinned slot to the pool. A heap slot goes back
// to the garbage collector instead whenever the free list can stand in
// for it; kept, it would hold its bytes for the cache's life.
func (c *Cache) putSlot(s *Slot) {
	if s.heap && len(c.freeSlots) > 0 {
		c.heapSlots--
		return
	}
	c.freeSlots = append(c.freeSlots, s)
}

// Slots reports how many data slots the cache holds, in use or free:
// the pool slots it has made plus its heap slots. A slot a mid-fill
// eviction took out of circulation stays counted.
func (c *Cache) Slots() int { return c.pooled + c.heapSlots }

// sweepZombies moves freed-while-pinned slots whose pins have drained
// back into the pool.
func (c *Cache) sweepZombies() {
	kept := c.zombies[:0]
	for _, s := range c.zombies {
		if s.refs.Load() == 0 {
			c.putSlot(s)
		} else {
			kept = append(kept, s)
		}
	}
	clear(c.zombies[len(kept):])
	c.zombies = kept
}

// ReleaseSlot returns a slot to the pool once its holder is done with it:
// the write-back path releases a detached victim slot after the store
// write, and freeBuf releases a removed block's slot. A still-pinned slot
// parks on the zombie list until its readers drain.
func (c *Cache) ReleaseSlot(s *Slot) {
	if s.refs.Load() != 0 {
		c.zombies = append(c.zombies, s)
		return
	}
	c.putSlot(s)
}

// ExclusiveData returns b's bytes writable by the kernel's holder. If
// the current slot is pinned by in-flight response frames, the block
// moves to a fresh copy (copy-on-write) and the pinned slot stays frozen
// for its readers; cowed reports that the copy happened so the caller
// can count it. Returns nil when the cache has no slots (SlotBytes == 0).
func (c *Cache) ExclusiveData(b *Buf) (data []byte, cowed bool) {
	s := b.Slot
	if s == nil {
		return nil, false
	}
	if s.refs.Load() == 0 {
		return s.data, false
	}
	ns := c.allocSlot()
	copy(ns.data, s.data)
	b.Slot = ns
	c.zombies = append(c.zombies, s)
	return ns.data, true
}
