package sim

import (
	"sort"
	"testing"
)

// heapEvents builds a deterministic scrambled batch of events.
func heapEvents(n int) []event {
	r := NewRand(42)
	evs := make([]event, n)
	for i := range evs {
		evs[i] = event{at: Time(r.Uint64() % 1000), seq: uint64(i)}
	}
	return evs
}

func TestEventHeapOrdering(t *testing.T) {
	evs := heapEvents(500)
	var h eventHeap
	for _, ev := range evs {
		h.push(ev)
	}
	want := append([]event(nil), evs...)
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	for i, w := range want {
		got := h.pop()
		if got.at != w.at || got.seq != w.seq {
			t.Fatalf("pop %d = {at:%d seq:%d}, want {at:%d seq:%d}",
				i, got.at, got.seq, w.at, w.seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d events left after draining", len(h))
	}
}

// TestEventHeapZeroAllocs pins the point of the typed heap: once the
// slice has grown to its high-water mark, steady-state push/pop cycles
// must not allocate (container/heap boxed every event into an interface
// value on both Push and Pop).
func TestEventHeapZeroAllocs(t *testing.T) {
	var h eventHeap
	for i := 0; i < 64; i++ {
		h.push(event{at: Time(i * 37 % 64), seq: uint64(i)})
	}
	seq := uint64(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			seq++
			h.push(event{at: Time(seq * 31 % 128), seq: seq})
		}
		for i := 0; i < 8; i++ {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state push/pop allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkEventHeap measures one push+pop cycle against a heap
// pre-loaded to a typical simulation depth (tens of pending wake-ups:
// processes, disk steps, the update daemon).
func BenchmarkEventHeap(b *testing.B) {
	var h eventHeap
	for i := 0; i < 32; i++ {
		h.push(event{at: Time(i * 37 % 64), seq: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.push(event{at: Time(i % 97), seq: uint64(i + 32)})
		h.pop()
	}
}
