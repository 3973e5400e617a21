package trace

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/fs"
	"repro/internal/sim"
)

func seq(n int) []cache.BlockID {
	refs := make([]cache.BlockID, n)
	for i := range refs {
		refs[i] = cache.BlockID{File: 1, Num: int32(i)}
	}
	return refs
}

func cyclic(blocks, passes int) []cache.BlockID {
	var refs []cache.BlockID
	for p := 0; p < passes; p++ {
		refs = append(refs, seq(blocks)...)
	}
	return refs
}

func TestTraceAppendAndUnique(t *testing.T) {
	refs := []cache.BlockID{{File: 1, Num: 0}, {File: 1, Num: 1}, {File: 1, Num: 0}, {File: 2, Num: 0}}
	if got := Unique(refs); got != 3 {
		t.Errorf("Unique = %d, want 3", got)
	}
}

func TestLRUCyclicThrash(t *testing.T) {
	// The canonical pathology: a cycle one block larger than the cache
	// misses on every reference under LRU.
	refs := cyclic(11, 5)
	r := SimLRU(refs, 10)
	if r.Hits != 0 {
		t.Errorf("LRU hits = %d on an over-size cycle, want 0", r.Hits)
	}
	if r.HitRatio() != 0 {
		t.Errorf("HitRatio = %v", r.HitRatio())
	}
}

func TestMRUCyclicKeepsPrefix(t *testing.T) {
	refs := cyclic(20, 5)
	r := SimMRU(refs, 10)
	// MRU keeps blocks 0..8 resident; each pass misses about 11 of 20.
	// Compulsory 20 + 4 passes x ~11.
	if r.Misses > 70 || r.Misses < 20 {
		t.Errorf("MRU misses = %d, want about 64", r.Misses)
	}
	lru := SimLRU(refs, 10)
	if r.Misses >= lru.Misses {
		t.Errorf("MRU (%d) not better than LRU (%d) on a cycle", r.Misses, lru.Misses)
	}
}

func TestFittingWorkingSetAllPoliciesEqual(t *testing.T) {
	refs := cyclic(10, 5)
	for _, r := range Compare(refs, 10) {
		if r.Misses != 10 {
			t.Errorf("%s: misses = %d, want compulsory 10", r.Policy, r.Misses)
		}
	}
}

func TestOPTOnCycleEqualsMRUIdeal(t *testing.T) {
	// On a pure cycle OPT keeps capacity blocks resident and misses
	// exactly blocks-capacity times per subsequent pass.
	const blocks, passes, capacity = 20, 5, 10
	refs := cyclic(blocks, passes)
	r := SimOPT(refs, capacity)
	want := int64(blocks + (passes-1)*(blocks-capacity))
	if r.Misses != want {
		t.Errorf("OPT misses = %d, want %d", r.Misses, want)
	}
}

func TestOPTHotCold(t *testing.T) {
	// A hot block touched every other reference with a cold stream: OPT
	// must keep the hot block (2 misses only: hot + per cold block).
	var refs []cache.BlockID
	hot := cache.BlockID{File: 9, Num: 0}
	for i := 0; i < 100; i++ {
		refs = append(refs, cache.BlockID{File: 1, Num: int32(i)}, hot)
	}
	r := SimOPT(refs, 4)
	if r.Misses != 101 {
		t.Errorf("OPT misses = %d, want 101 (hot block never evicted)", r.Misses)
	}
}

func TestCapacityOnePanicsZero(t *testing.T) {
	for _, f := range []func([]cache.BlockID, int) Result{SimLRU, SimMRU, SimOPT} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("zero capacity did not panic")
				}
			}()
			f(seq(3), 0)
		}()
	}
}

func TestCapacityOne(t *testing.T) {
	refs := []cache.BlockID{{File: 1, Num: 0}, {File: 1, Num: 0}, {File: 1, Num: 1}, {File: 1, Num: 0}}
	for _, r := range Compare(refs, 1) {
		if r.Hits != 1 {
			t.Errorf("%s: hits = %d, want 1", r.Policy, r.Hits)
		}
	}
}

// TestQuickOPTIsOptimal: OPT must never miss more than LRU or MRU on any
// stream — the defining property of Belady's algorithm.
func TestQuickOPTIsOptimal(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := 1 + int(capRaw)%16
		rng := sim.NewRand(seed)
		refs := make([]cache.BlockID, 1500)
		for i := range refs {
			refs[i] = cache.BlockID{File: fs.FileID(1 + rng.Intn(2)), Num: int32(rng.Intn(40))}
		}
		opt := SimOPT(refs, capacity)
		if opt.Misses > SimLRU(refs, capacity).Misses {
			return false
		}
		return opt.Misses <= SimMRU(refs, capacity).Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickConservation: for all policies, hits + misses = references and
// misses >= unique blocks (compulsory).
func TestQuickConservation(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := 1 + int(capRaw)%20
		rng := sim.NewRand(seed)
		refs := make([]cache.BlockID, 800)
		for i := range refs {
			refs[i] = cache.BlockID{File: fs.FileID(1 + rng.Intn(3)), Num: int32(rng.Intn(30))}
		}
		for _, r := range Compare(refs, capacity) {
			if r.Hits+r.Misses != int64(len(refs)) {
				return false
			}
			if r.Misses < int64(Unique(refs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sliceSim is the plain reference for SimLRU and SimMRU: the cached blocks
// in a slice from least to most recently used, searched and shifted on
// every reference. The victim is the first element under LRU, the last
// under MRU.
func sliceSim(refs []cache.BlockID, capacity int, mru bool) (hits, misses int64) {
	var cached []cache.BlockID
	for _, r := range refs {
		if i := slices.Index(cached, r); i >= 0 {
			hits++
			cached = append(slices.Delete(cached, i, i+1), r)
			continue
		}
		misses++
		if len(cached) == capacity {
			victim := 0
			if mru {
				victim = len(cached) - 1
			}
			cached = slices.Delete(cached, victim, victim+1)
		}
		cached = append(cached, r)
	}
	return hits, misses
}

// TestQuickLRUMRUMatchSlice holds SimLRU and SimMRU to the slice model on
// random streams over up to three files of 120 blocks, at capacities 1-40.
// A quarter of the streams are sequential passes, where LRU thrashes and
// MRU keeps a prefix; the rest mix random references with short runs.
func TestQuickLRUMRUMatchSlice(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := 1 + int(capRaw)%40
		rng := sim.NewRand(seed)
		files := 1 + rng.Intn(3)
		sequential := rng.Intn(4) == 0
		refs := make([]cache.BlockID, 400+rng.Intn(400))
		for i := range refs {
			switch {
			case sequential:
				refs[i] = cache.BlockID{File: fs.FileID(1 + i/120%files), Num: int32(i % 120)}
			case i > 0 && rng.Intn(3) == 0:
				refs[i] = cache.BlockID{File: refs[i-1].File, Num: (refs[i-1].Num + 1) % 120}
			default:
				refs[i] = cache.BlockID{File: fs.FileID(1 + rng.Intn(files)), Num: int32(rng.Intn(120))}
			}
		}
		for _, mru := range []bool{false, true} {
			replay := SimLRU
			if mru {
				replay = SimMRU
			}
			got := replay(refs, capacity)
			hits, misses := sliceSim(refs, capacity, mru)
			if got.Hits != hits || got.Misses != misses {
				t.Logf("%s capacity %d: got %d hits %d misses, slice %d hits %d misses",
					got.Policy, capacity, got.Hits, got.Misses, hits, misses)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickLRUStackProperty: LRU has the inclusion property — a bigger
// cache never misses more.
func TestQuickLRUStackProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		refs := make([]cache.BlockID, 1000)
		for i := range refs {
			refs[i] = cache.BlockID{File: 1, Num: int32(rng.Intn(50))}
		}
		prev := int64(1 << 60)
		for _, capacity := range []int{2, 4, 8, 16, 32} {
			m := SimLRU(refs, capacity).Misses
			if m > prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickOPTStackProperty: OPT also has the inclusion property.
func TestQuickOPTStackProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		refs := make([]cache.BlockID, 1000)
		for i := range refs {
			refs[i] = cache.BlockID{File: 1, Num: int32(rng.Intn(50))}
		}
		prev := int64(1 << 60)
		for _, capacity := range []int{2, 4, 8, 16, 32} {
			m := SimOPT(refs, capacity).Misses
			if m > prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLRU2ScanResistance(t *testing.T) {
	// Hot set re-referenced between one-shot scan blocks: LRU-2 keeps
	// the hot set (scan blocks have infinite 2-distance) while LRU lets
	// the scan flush it.
	var refs []cache.BlockID
	scan := int32(0)
	for i := 0; i < 400; i++ {
		refs = append(refs, cache.BlockID{File: 9, Num: int32(i % 4)}) // hot 4
		for j := 0; j < 3; j++ {                                       // heavy scan
			refs = append(refs, cache.BlockID{File: 1, Num: scan})
			scan++
		}
	}
	// Hot reuse distance (15 distinct blocks) exceeds the cache, so LRU
	// thrashes the hot set; LRU-2 evicts the once-referenced scan blocks
	// first and keeps it.
	lru := SimLRU(refs, 8)
	lru2 := SimLRU2(refs, 8)
	if lru2.Misses >= lru.Misses {
		t.Errorf("LRU-2 (%d misses) not scan-resistant vs LRU (%d)", lru2.Misses, lru.Misses)
	}
	// Misses under LRU-2: the 1200 scan blocks plus a handful of hot
	// compulsories.
	if lru2.Misses > 1210 {
		t.Errorf("LRU-2 misses = %d, want close to 1204", lru2.Misses)
	}
}

func TestLRU2CapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	SimLRU2(seq(3), 0)
}

func TestLRU2NeverBelowOPT(t *testing.T) {
	rng := sim.NewRand(31)
	refs := make([]cache.BlockID, 2000)
	for i := range refs {
		refs[i] = cache.BlockID{File: 1, Num: int32(rng.Intn(60))}
	}
	if SimLRU2(refs, 16).Misses < SimOPT(refs, 16).Misses {
		t.Error("LRU-2 beat OPT, which is impossible")
	}
}

// scanLRU2 is LRU-2 with the victim found the plain way, by ranging over
// every cached block on every miss: the reference for SimLRU2's heap.
func scanLRU2(refs []cache.BlockID, capacity int) Result {
	res := Result{Policy: "LRU-2", Capacity: capacity}
	cached := make(map[cache.BlockID]*lru2Node, capacity)
	history := make(map[cache.BlockID]int)
	for i, r := range refs {
		if n, ok := cached[r]; ok {
			res.Hits++
			n.prev, n.last = n.last, i
			continue
		}
		res.Misses++
		if len(cached) >= capacity {
			var victim *lru2Node
			for _, n := range cached {
				vOnce, nOnce := victim != nil && victim.prev < 0, n.prev < 0
				switch {
				case victim == nil, nOnce && !vOnce:
					victim = n
				case nOnce && vOnce && n.last < victim.last, !nOnce && !vOnce && n.prev < victim.prev:
					victim = n
				}
			}
			history[victim.ref] = victim.last
			delete(cached, victim.ref)
		}
		prev := -1
		if h, ok := history[r]; ok {
			prev = h
			delete(history, r)
		}
		cached[r] = &lru2Node{ref: r, last: i, prev: prev}
	}
	return res
}

// TestLRU2HeapMatchesScan replays random streams — a hot set, a wider warm
// set and one-shot scan blocks, so both victim classes and the history
// are in play — through the heap and the scan. One differing victim
// changes what is cached from then on, so equal counts at every capacity
// pin the selection.
func TestLRU2HeapMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRand(seed)
		refs := make([]cache.BlockID, 4000)
		scan := int32(0)
		for i := range refs {
			switch rng.Intn(4) {
			case 0:
				refs[i] = cache.BlockID{File: 1, Num: int32(rng.Intn(8))}
			case 1, 2:
				refs[i] = cache.BlockID{File: 2, Num: int32(rng.Intn(120))}
			default:
				refs[i] = cache.BlockID{File: 3, Num: scan}
				scan++
			}
		}
		for _, capacity := range []int{1, 2, 7, 16, 64, 200} {
			if got, want := SimLRU2(refs, capacity), scanLRU2(refs, capacity); got != want {
				t.Errorf("seed %d capacity %d: heap %+v, scan %+v", seed, capacity, got, want)
			}
		}
	}
}
