// Package trace replays block reference streams — a []cache.BlockID, as
// a simulation run's Trace hook appends it — through single-process
// replacement policies: LRU, MRU, LRU-2 and Belady's optimal (OPT). LRU
// and MRU are the kernel's own: the buffer cache under global LRU (the
// paper's original kernel), and the same cache with one ACM manager whose
// pool runs MRU. LRU-2 and OPT have no kernel equivalent and are
// simulated here. The paper's companion work
// (USENIX '94) argues application policies should be derived from the
// optimal replacement principle; replaying a workload's own stream
// through OPT gives the unreachable lower bound on misses that a smart
// policy is trying to approach.
package trace

import (
	"container/heap"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/sim"
)

// Unique returns the number of distinct blocks referenced (the compulsory
// miss count).
func Unique(refs []cache.BlockID) int {
	seen := make(map[cache.BlockID]struct{}, len(refs))
	for _, r := range refs {
		seen[r] = struct{}{}
	}
	return len(seen)
}

// Result summarizes one policy replay.
type Result struct {
	Policy   string
	Capacity int
	Hits     int64
	Misses   int64
}

// HitRatio reports hits / references.
func (r Result) HitRatio() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// SimLRU replays the stream through the kernel's buffer cache of the
// given capacity under global LRU, the paper's original kernel.
func SimLRU(refs []cache.BlockID, capacity int) Result {
	c := cache.New(cache.Config{Capacity: capacity, Alloc: cache.GlobalLRU}, nil)
	return replay(refs, c, cache.NoOwner, "LRU")
}

// SimMRU replays the stream through the kernel's buffer cache with one
// manager whose default pool runs MRU: on pressure, the block touched most
// recently is replaced. A fresh ACM cannot fail to create the manager or
// set the policy, so an error there is a bug and panics.
func SimMRU(refs []cache.BlockID, capacity int) Result {
	a := acm.New(func() sim.Time { return 0 }, acm.Limits{})
	m, err := a.CreateManager(0)
	if err == nil {
		err = m.SetPolicy(acm.DefaultPriority, acm.MRU)
	}
	if err != nil {
		panic(err)
	}
	c := cache.New(cache.Config{Capacity: capacity, Alloc: cache.AllocLRU}, a)
	return replay(refs, c, 0, "MRU")
}

// replay runs the stream through c, loading each missed block for owner.
// Every loaded block is marked referenced at once, as a demand load is:
// an MRU pool keeps unreferenced (read-ahead) blocks as its last resort.
func replay(refs []cache.BlockID, c *cache.Cache, owner int, name string) Result {
	res := Result{Policy: name, Capacity: c.Capacity()}
	for _, id := range refs {
		if c.Lookup(id, 0, 0) != nil {
			res.Hits++
			continue
		}
		res.Misses++
		b, _ := c.Insert(id, owner, 0)
		b.Referenced = true
	}
	return res
}

// optEntry is a heap element for SimOPT: the block and the stream index of
// its next use at the time the entry was pushed.
type optEntry struct {
	ref     cache.BlockID
	nextUse int
}

type optHeap []optEntry

func (h optHeap) Len() int            { return len(h) }
func (h optHeap) Less(i, j int) bool  { return h[i].nextUse > h[j].nextUse } // max-heap
func (h optHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *optHeap) Push(x interface{}) { *h = append(*h, x.(optEntry)) }
func (h *optHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// infinity is a next-use index beyond any stream position.
const infinity = int(^uint(0) >> 1)

// SimOPT replays the stream through Belady's optimal policy: on pressure,
// replace the cached block whose next use is farthest in the future. This
// requires the whole stream up front, which is exactly why it is a bound
// rather than a policy.
func SimOPT(refs []cache.BlockID, capacity int) Result {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	res := Result{Policy: "OPT", Capacity: capacity}
	// next[i] = stream index of the next reference to refs[i] after i.
	next := make([]int, len(refs))
	last := make(map[cache.BlockID]int, capacity)
	for i := len(refs) - 1; i >= 0; i-- {
		if j, ok := last[refs[i]]; ok {
			next[i] = j
		} else {
			next[i] = infinity
		}
		last[refs[i]] = i
	}
	cached := make(map[cache.BlockID]int, capacity) // block -> current next use
	h := &optHeap{}
	for i, r := range refs {
		if _, ok := cached[r]; ok {
			res.Hits++
			cached[r] = next[i]
			heap.Push(h, optEntry{ref: r, nextUse: next[i]})
			continue
		}
		res.Misses++
		if len(cached) >= capacity {
			// Pop lazily until a live entry surfaces: an entry is live
			// if it matches the block's current next-use.
			for {
				e := heap.Pop(h).(optEntry)
				if cur, ok := cached[e.ref]; ok && cur == e.nextUse {
					delete(cached, e.ref)
					break
				}
			}
		}
		cached[r] = next[i]
		heap.Push(h, optEntry{ref: r, nextUse: next[i]})
	}
	return res
}

// Compare replays the stream through LRU, MRU, LRU-2 and OPT at one
// capacity.
func Compare(refs []cache.BlockID, capacity int) []Result {
	return []Result{
		SimLRU(refs, capacity),
		SimMRU(refs, capacity),
		SimLRU2(refs, capacity),
		SimOPT(refs, capacity),
	}
}

// lru2Node tracks a block's last two reference times for SimLRU2.
type lru2Node struct {
	ref        cache.BlockID
	last, prev int // stream indices; prev = -1 until the second access
	pos        int // index in the lru2Heap
}

// lru2Heap is a min-heap of the cached blocks in eviction order: blocks
// referenced once first, by last reference, then the rest by second-to-
// last reference. Every node knows its position, so a hit reorders its
// block in place (heap.Fix). The compared values are stream indices of a
// reference to the block itself, so no two blocks tie and the minimum is
// the one victim.
type lru2Heap []*lru2Node

func (h lru2Heap) Len() int { return len(h) }
func (h lru2Heap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if aOnce := a.prev < 0; aOnce != (b.prev < 0) {
		return aOnce
	} else if aOnce {
		return a.last < b.last
	}
	return a.prev < b.prev
}
func (h lru2Heap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].pos, h[j].pos = i, j }
func (h *lru2Heap) Push(x interface{}) { n := x.(*lru2Node); n.pos = len(*h); *h = append(*h, n) }
func (h *lru2Heap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return n
}

// SimLRU2 replays the stream through the LRU-2 policy of O'Neil, O'Neil
// and Weikum (cited by the paper for database buffering): the victim is
// the block with the oldest second-most-recent reference; blocks
// referenced only once have an infinite backward 2-distance and go first,
// oldest last-reference first. Reference history is retained past
// eviction (the algorithm's Retained Information Period, unbounded here
// since this is an offline analysis tool), which is what makes LRU-2
// scan-resistant: one-shot scans cannot displace blocks with established
// reuse.
func SimLRU2(refs []cache.BlockID, capacity int) Result {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	res := Result{Policy: "LRU-2", Capacity: capacity}
	cached := make(map[cache.BlockID]*lru2Node, capacity)
	order := make(lru2Heap, 0, capacity)
	history := make(map[cache.BlockID]int) // last reference of evicted blocks
	for i, r := range refs {
		if n, ok := cached[r]; ok {
			res.Hits++
			n.prev, n.last = n.last, i
			heap.Fix(&order, n.pos)
			continue
		}
		res.Misses++
		if len(cached) >= capacity {
			victim := heap.Pop(&order).(*lru2Node)
			history[victim.ref] = victim.last
			delete(cached, victim.ref)
		}
		n := &lru2Node{ref: r, last: i, prev: -1}
		if h, ok := history[r]; ok {
			n.prev = h
			delete(history, r)
		}
		cached[r] = n
		heap.Push(&order, n)
	}
	return res
}
