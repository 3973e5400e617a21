// Package trace captures block reference streams from simulation runs and
// replays them through standalone single-process replacement policies —
// LRU, MRU, and Belady's optimal (OPT). The paper's companion work
// (USENIX '94) argues application policies should be derived from the
// optimal replacement principle; replaying a workload's own stream
// through OPT gives the unreachable lower bound on misses that a smart
// policy is trying to approach.
package trace

import (
	"container/heap"
	"fmt"

	"repro/internal/fs"
)

// Ref is one block reference.
type Ref struct {
	File  fs.FileID
	Block int32
}

func (r Ref) String() string { return fmt.Sprintf("f%d:%d", r.File, r.Block) }

// Trace is an append-only reference stream.
type Trace struct {
	Refs []Ref
}

// Append records one reference.
func (t *Trace) Append(file fs.FileID, block int32) {
	t.Refs = append(t.Refs, Ref{File: file, Block: block})
}

// Len returns the stream length.
func (t *Trace) Len() int { return len(t.Refs) }

// Unique returns the number of distinct blocks referenced (the compulsory
// miss count).
func (t *Trace) Unique() int {
	seen := make(map[Ref]struct{}, len(t.Refs))
	for _, r := range t.Refs {
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

// SimLRU replays the stream through a single least-recently-used cache of
// the given capacity.
func SimLRU(refs []Ref, capacity int) Result {
	return simEndList(refs, capacity, "LRU", false)
}

// SimMRU replays the stream through a most-recently-used cache: on
// pressure, the block touched most recently is replaced.
func SimMRU(refs []Ref, capacity int) Result {
	return simEndList(refs, capacity, "MRU", true)
}

// lruNode is a doubly linked recency-list node.
type lruNode struct {
	ref        Ref
	prev, next *lruNode
}

// simEndList runs a recency list evicting from the LRU end (lru=false ->
// victim head) or the MRU end (mru: victim tail).
func simEndList(refs []Ref, capacity int, name string, mru bool) Result {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	res := Result{Policy: name, Capacity: capacity}
	head, tail := &lruNode{}, &lruNode{} // sentinels; head side = LRU
	head.next, tail.prev = tail, head
	nodes := make(map[Ref]*lruNode, capacity)
	unlink := func(n *lruNode) {
		n.prev.next = n.next
		n.next.prev = n.prev
	}
	pushMRU := func(n *lruNode) {
		n.prev = tail.prev
		n.next = tail
		n.prev.next = n
		tail.prev = n
	}
	for _, r := range refs {
		if n, ok := nodes[r]; ok {
			res.Hits++
			unlink(n)
			pushMRU(n)
			continue
		}
		res.Misses++
		if len(nodes) >= capacity {
			var victim *lruNode
			if mru {
				victim = tail.prev
			} else {
				victim = head.next
			}
			unlink(victim)
			delete(nodes, victim.ref)
		}
		n := &lruNode{ref: r}
		nodes[r] = n
		pushMRU(n)
	}
	return res
}

// optEntry is a heap element for SimOPT: the block and the stream index of
// its next use at the time the entry was pushed.
type optEntry struct {
	ref     Ref
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
func SimOPT(refs []Ref, capacity int) Result {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	res := Result{Policy: "OPT", Capacity: capacity}
	// next[i] = stream index of the next reference to refs[i] after i.
	next := make([]int, len(refs))
	last := make(map[Ref]int, capacity)
	for i := len(refs) - 1; i >= 0; i-- {
		if j, ok := last[refs[i]]; ok {
			next[i] = j
		} else {
			next[i] = infinity
		}
		last[refs[i]] = i
	}
	cached := make(map[Ref]int, capacity) // block -> current next use
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
func Compare(refs []Ref, capacity int) []Result {
	return []Result{
		SimLRU(refs, capacity),
		SimMRU(refs, capacity),
		SimLRU2(refs, capacity),
		SimOPT(refs, capacity),
	}
}

// lru2Node tracks a block's last two reference times for SimLRU2.
type lru2Node struct {
	ref        Ref
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
func SimLRU2(refs []Ref, capacity int) Result {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	res := Result{Policy: "LRU-2", Capacity: capacity}
	cached := make(map[Ref]*lru2Node, capacity)
	order := make(lru2Heap, 0, capacity)
	history := make(map[Ref]int) // last reference of evicted blocks
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
