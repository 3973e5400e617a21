package acm_test

import (
	"cmp"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/fs"
	"repro/internal/sim"
)

// levelSizes converts LevelSizes' sorted slice to a map for the
// absent-means-zero indexing the assertions below use.
func levelSizes(m *acm.Manager) map[int]int {
	out := make(map[int]int)
	for _, ls := range m.LevelSizes(nil) {
		out[ls.Prio] = ls.N
	}
	return out
}

// harness wires a real cache to the ACM, standing in for the core kernel.
type harness struct {
	c   *cache.Cache
	a   *acm.ACM
	now sim.Time
}

func newHarness(t *testing.T, capacity int, alloc cache.Alloc) *harness {
	t.Helper()
	h := &harness{}
	h.a = acm.New(func() sim.Time { return h.now }, acm.Limits{})
	h.c = cache.New(cache.Config{Capacity: capacity, Alloc: alloc}, h.a)
	return h
}

// read touches block (file, num) on behalf of owner and reports a hit.
func (h *harness) read(owner int, file fs.FileID, num int32) bool {
	id := cache.BlockID{File: file, Num: num}
	if b := h.c.Lookup(id, 0, 8192); b != nil {
		return true
	}
	h.c.Insert(id, owner, h.now)
	return false
}

func TestManagerLifecycle(t *testing.T) {
	h := newHarness(t, 8, cache.LRUSP)
	m, err := h.a.CreateManager(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.a.CreateManager(1); err == nil {
		t.Error("duplicate CreateManager succeeded")
	}
	if !h.a.Managed(1) || h.a.Managed(2) {
		t.Error("Managed wrong")
	}
	got, ok := h.a.ManagerOf(1)
	if !ok || got != m {
		t.Error("ManagerOf wrong")
	}
	h.read(1, 10, 0)
	h.read(1, 10, 1)
	if m.NewBlocks != 2 {
		t.Errorf("NewBlocks = %d, want 2", m.NewBlocks)
	}
	h.a.DestroyManager(1)
	if h.a.Managed(1) {
		t.Error("still managed after destroy")
	}
	h.a.DestroyManager(1) // idempotent
	// Blocks became unmanaged: further traffic must not consult the ACM.
	for i := int32(0); i < 20; i++ {
		h.read(1, 10, i)
	}
	if m.Decisions != 0 {
		t.Errorf("destroyed manager consulted %d times", m.Decisions)
	}
	h.a.CheckInvariants()
}

func TestManagerLimit(t *testing.T) {
	a := acm.New(func() sim.Time { return 0 }, acm.Limits{MaxManagers: 2, MaxLevels: 4, MaxFileRecords: 4})
	if _, err := a.CreateManager(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateManager(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateManager(3); err == nil {
		t.Error("manager limit not enforced")
	}
}

// TestFileGoneFreesRecords: a removed file's priority record goes from
// every manager that exists — found through the live list, which stays
// right as managers with ids on either side come and go — and frees its
// place under MaxFileRecords.
func TestFileGoneFreesRecords(t *testing.T) {
	a := acm.New(func() sim.Time { return 0 }, acm.Limits{MaxManagers: 3, MaxLevels: 4, MaxFileRecords: 2})
	mgr := make(map[int]*acm.Manager)
	create := func(owner int) {
		t.Helper()
		m, err := a.CreateManager(owner)
		if err != nil {
			t.Fatal(err)
		}
		mgr[owner] = m
		for _, file := range []fs.FileID{100, 101} {
			if err := m.SetPriority(file, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	create(7)
	create(2)
	create(900)
	a.DestroyManager(7) // the first of the live list: the last takes its slot
	a.CheckInvariants()
	create(5)
	a.DestroyManager(5) // the last of the live list
	a.CheckInvariants()

	a.FileGone(100)
	for _, owner := range []int{2, 900} {
		m := mgr[owner]
		if got := m.Priority(100); got != acm.DefaultPriority {
			t.Errorf("manager %d still records priority %d for the removed file", owner, got)
		}
		if got := m.Priority(101); got != 1 {
			t.Errorf("manager %d lost the record of a file that exists (priority %d)", owner, got)
		}
		if err := m.SetPriority(102, 1); err != nil {
			t.Errorf("manager %d: the removed file's record still counts against the limit: %v", owner, err)
		}
		if err := m.SetPriority(103, 1); !errors.Is(err, acm.ErrLimit) {
			t.Errorf("manager %d: file record limit not enforced: %v", owner, err)
		}
	}
	a.FileGone(555) // a file nobody prioritised
	if _, err := a.CreateManager(11); err != nil {
		t.Errorf("a destroyed manager still counts against MaxManagers: %v", err)
	}
	if _, err := a.CreateManager(12); !errors.Is(err, acm.ErrLimit) {
		t.Errorf("manager limit not enforced: %v", err)
	}
	a.CheckInvariants()
}

func TestLevelAndFileLimits(t *testing.T) {
	a := acm.New(func() sim.Time { return 0 }, acm.Limits{MaxManagers: 4, MaxLevels: 2, MaxFileRecords: 2})
	m, _ := a.CreateManager(1)
	if err := m.SetPolicy(0, acm.MRU); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPolicy(1, acm.LRU); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPolicy(2, acm.MRU); err == nil {
		t.Error("level limit not enforced")
	}
	if err := m.SetPriority(100, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPriority(101, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPriority(102, 1); err == nil {
		t.Error("file record limit not enforced")
	}
	// Resetting to the default priority frees a record.
	if err := m.SetPriority(100, acm.DefaultPriority); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPriority(102, 1); err != nil {
		t.Errorf("record not freed: %v", err)
	}
}

func TestPolicyValidation(t *testing.T) {
	h := newHarness(t, 4, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	if err := m.SetPolicy(0, acm.Policy(9)); err == nil {
		t.Error("bad policy accepted")
	}
	if m.PolicyOf(0) != acm.LRU {
		t.Error("default policy not LRU")
	}
	m.SetPolicy(0, acm.MRU)
	if m.PolicyOf(0) != acm.MRU {
		t.Error("SetPolicy did not stick")
	}
	if acm.LRU.String() != "LRU" || acm.MRU.String() != "MRU" {
		t.Error("Policy.String wrong")
	}
}

func TestPriorityGetSet(t *testing.T) {
	h := newHarness(t, 4, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	if m.Priority(5) != acm.DefaultPriority {
		t.Error("default priority wrong")
	}
	m.SetPriority(5, -1)
	if m.Priority(5) != -1 {
		t.Error("SetPriority did not stick")
	}
}

// TestMRUBeatsLRUOnCyclicScan is the paper's central single-application
// claim in miniature: repeated sequential scans of a file larger than the
// cache thrash under LRU but mostly hit under MRU.
func TestMRUBeatsLRUOnCyclicScan(t *testing.T) {
	const capacity, fileBlocks, scans = 50, 60, 5
	run := func(smart bool) int64 {
		h := newHarness(t, capacity, cache.LRUSP)
		m, _ := h.a.CreateManager(1)
		if smart {
			m.SetPolicy(0, acm.MRU)
		}
		for s := 0; s < scans; s++ {
			for b := int32(0); b < fileBlocks; b++ {
				h.read(1, 7, b)
			}
		}
		h.a.CheckInvariants()
		h.c.CheckInvariants()
		return h.c.Stats().Misses
	}
	lru, mru := run(false), run(true)
	if lru != fileBlocks*scans {
		t.Errorf("LRU misses = %d, want %d (pure thrash)", lru, fileBlocks*scans)
	}
	// MRU keeps a prefix resident: compulsory (60) plus roughly
	// (fileBlocks - capacity + small erosion) per later scan.
	maxWant := int64(fileBlocks + scans*(fileBlocks-capacity+3))
	if mru >= lru/2 || mru > maxWant {
		t.Errorf("MRU misses = %d, want far fewer than LRU's %d (<= %d)", mru, lru, maxWant)
	}
}

// TestPriorityPoolsProtectHotFile: a high-priority file must survive
// pressure from a low-priority scan, as with glimpse's index files.
func TestPriorityPoolsProtectHotFile(t *testing.T) {
	const capacity = 40
	h := newHarness(t, capacity, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	hot, cold := fs.FileID(1), fs.FileID(2)
	m.SetPriority(hot, 1)
	// Load the hot file (20 blocks).
	for b := int32(0); b < 20; b++ {
		h.read(1, hot, b)
	}
	// Blast through 200 cold blocks.
	for b := int32(0); b < 200; b++ {
		h.read(1, cold, b)
	}
	// Every hot block must still be cached.
	for b := int32(0); b < 20; b++ {
		if !h.read(1, hot, b) {
			t.Fatalf("hot block %d evicted by cold traffic", b)
		}
	}
	sizes := levelSizes(m)
	if sizes[1] != 20 {
		t.Errorf("priority-1 pool holds %d, want 20", sizes[1])
	}
	h.a.CheckInvariants()
}

// TestNegativePriorityReplacedFirst: priority -1 blocks go before priority
// 0 blocks regardless of recency (sort's input file).
func TestNegativePriorityReplacedFirst(t *testing.T) {
	h := newHarness(t, 10, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	junk, keep := fs.FileID(1), fs.FileID(2)
	m.SetPriority(junk, -1)
	for b := int32(0); b < 5; b++ {
		h.read(1, keep, b)
	}
	for b := int32(0); b < 5; b++ {
		h.read(1, junk, b)
	}
	// New traffic must evict junk blocks first even though they are the
	// most recently used.
	for b := int32(10); b < 15; b++ {
		h.read(1, keep, b)
	}
	for b := int32(0); b < 5; b++ {
		if !h.read(1, keep, b) {
			t.Fatalf("keep block %d evicted while junk remained", b)
		}
	}
	h.a.CheckInvariants()
}

// TestSetTempPriFlushes: the done-with pattern — a temporary priority of
// -1 flushes a block ahead of everything else.
func TestSetTempPriFlushes(t *testing.T) {
	h := newHarness(t, 4, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	f := fs.FileID(3)
	for b := int32(0); b < 4; b++ {
		h.read(1, f, b)
	}
	// Mark block 3 (the most recently used!) done-with.
	if err := m.SetTempPri(h.c, f, 3, 3, -1); err != nil {
		t.Fatal(err)
	}
	h.read(1, f, 10) // miss: must evict block 3, not block 0
	if h.read(1, f, 3) {
		t.Error("done-with block survived; wrong victim chosen")
	}
	// Block 0, the LRU block, must still be cached (one miss for blk 10,
	// one for blk 3 re-read evicting someone else — 0 had highest prio).
	h.a.CheckInvariants()
}

// TestTempPriRevertsOnAccess: a temporary priority lasts only until the
// next reference.
func TestTempPriRevertsOnAccess(t *testing.T) {
	h := newHarness(t, 4, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	f := fs.FileID(3)
	for b := int32(0); b < 3; b++ {
		h.read(1, f, b)
	}
	m.SetTempPri(h.c, f, 1, 1, -1)
	sizes := levelSizes(m)
	if sizes[-1] != 1 || sizes[0] != 2 {
		t.Fatalf("LevelSizes = %v, want {-1:1, 0:2}", sizes)
	}
	// Touch block 1: it reverts to priority 0.
	h.read(1, f, 1)
	sizes = levelSizes(m)
	if sizes[-1] != 0 || sizes[0] != 3 {
		t.Fatalf("after access LevelSizes = %v, want {0:3}", sizes)
	}
	h.a.CheckInvariants()
}

func TestTempPriRangeValidation(t *testing.T) {
	h := newHarness(t, 4, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	if err := m.SetTempPri(h.c, 1, 5, 2, -1); err == nil {
		t.Error("inverted range accepted")
	}
}

// TestSetPriorityMovesCachedBlocks: raising a file's priority moves its
// blocks into the new pool immediately (cscope keeping cscope.out).
func TestSetPriorityMovesCachedBlocks(t *testing.T) {
	h := newHarness(t, 8, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	f := fs.FileID(4)
	for b := int32(0); b < 4; b++ {
		h.read(1, f, b)
	}
	m.SetPriority(f, 2)
	sizes := levelSizes(m)
	if sizes[2] != 4 {
		t.Fatalf("LevelSizes = %v, want 4 blocks at priority 2", sizes)
	}
	// And back down.
	m.SetPriority(f, 0)
	sizes = levelSizes(m)
	if sizes[0] != 4 {
		t.Fatalf("LevelSizes = %v, want 4 blocks at priority 0", sizes)
	}
	h.a.CheckInvariants()
}

// TestTempPriSurvivesSetPriority: a block parked at a temporary priority
// stays there when the file's long-term priority changes; it reverts to
// the *new* long-term priority on its next access.
func TestTempPriSurvivesSetPriority(t *testing.T) {
	h := newHarness(t, 8, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	f := fs.FileID(4)
	for b := int32(0); b < 3; b++ {
		h.read(1, f, b)
	}
	m.SetTempPri(h.c, f, 0, 0, 5)
	m.SetPriority(f, 1)
	sizes := levelSizes(m)
	if sizes[5] != 1 || sizes[1] != 2 {
		t.Fatalf("LevelSizes = %v, want {5:1, 1:2}", sizes)
	}
	h.read(1, f, 0) // revert: goes to the new long-term level 1
	sizes = levelSizes(m)
	if sizes[5] != 0 || sizes[1] != 3 {
		t.Fatalf("after access LevelSizes = %v, want {1:3}", sizes)
	}
	h.a.CheckInvariants()
}

// TestMovedBlocksLandAtLaterReplacedEnd checks the paper's movement rule:
// into an LRU pool at the MRU end, into an MRU pool at the LRU end.
func TestMovedBlocksLandAtLaterReplacedEnd(t *testing.T) {
	h := newHarness(t, 8, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	a, b := fs.FileID(1), fs.FileID(2)
	h.read(1, a, 0) // pool 0 order: a0 ...
	h.read(1, b, 0)
	h.read(1, b, 1) // pool 0 order: a0, b0, b1 (LRU -> MRU)
	// Move file a to the (LRU-policy) pool 1: lands at the MRU end.
	m.SetPriority(a, 1)
	h.read(1, b, 2)
	m.SetPriority(b, 1) // b0, b1, b2 move; order must be b0, b1, b2 after a0
	order := m.PoolOrder(1)
	want := []cache.BlockID{{File: a, Num: 0}, {File: b, Num: 0}, {File: b, Num: 1}, {File: b, Num: 2}}
	if len(order) != len(want) {
		t.Fatalf("pool order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pool order %v, want %v", order, want)
		}
	}
	// Now an MRU pool: movers land at the LRU end (replaced later under
	// MRU means least-recently-used end).
	m.SetPolicy(2, acm.MRU)
	m.SetPriority(a, 2) // a0 first mover
	m.SetPriority(b, 2) // b blocks must land *before* a0
	order = m.PoolOrder(2)
	if order[len(order)-1] != (cache.BlockID{File: a, Num: 0}) {
		t.Fatalf("MRU pool order %v: movers should push earlier arrivals toward the MRU end", order)
	}
	h.a.CheckInvariants()
}

// TestVictimSkipsBusyBlocks: the manager must not give up a block whose
// read I/O is still in flight.
func TestVictimSkipsBusyBlocks(t *testing.T) {
	h := newHarness(t, 3, cache.LRUSP)
	h.a.CreateManager(1)
	h.read(1, 1, 0)
	h.read(1, 1, 1)
	h.read(1, 1, 2)
	// Make the LRU block busy.
	h.c.Peek(cache.BlockID{File: 1, Num: 0}).ValidAt = 100
	h.now = 0
	h.read(1, 1, 3) // must evict block 1, not busy block 0
	if h.c.Peek(cache.BlockID{File: 1, Num: 0}) == nil {
		t.Error("busy block was evicted")
	}
	if h.c.Peek(cache.BlockID{File: 1, Num: 1}) != nil {
		t.Error("expected block 1 to be the victim")
	}
}

// TestObliviousManagerStillLRU: a manager that sets no policies behaves
// exactly like LRU (criterion 1 at the ACM level): same misses as an
// unmanaged run.
func TestObliviousManagerStillLRU(t *testing.T) {
	trace := make([][2]int32, 0, 4000)
	rng := sim.NewRand(12)
	for i := 0; i < 4000; i++ {
		trace = append(trace, [2]int32{int32(1 + rng.Intn(2)), int32(rng.Intn(50))})
	}
	run := func(managed bool) int64 {
		h := newHarness(t, 30, cache.LRUSP)
		if managed {
			h.a.CreateManager(1)
		}
		for _, tr := range trace {
			h.read(1, fs.FileID(tr[0]), tr[1])
		}
		return h.c.Stats().Misses
	}
	if m0, m1 := run(false), run(true); m0 != m1 {
		t.Errorf("managed-but-oblivious misses %d != unmanaged %d", m1, m0)
	}
}

// TestQuickACMInvariants hits the ACM with random fbehavior traffic —
// two managed owners over shared files with ownership transfer, plus
// random revocation flips — and checks structural invariants.
func TestQuickACMInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		h := &harness{}
		h.a = acm.New(func() sim.Time { return h.now }, acm.Limits{})
		h.c = cache.New(cache.Config{Capacity: 20, Alloc: cache.LRUSP, SharedTransfer: true}, h.a)
		m, _ := h.a.CreateManager(1)
		if _, err := h.a.CreateManager(2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			switch rng.Intn(12) {
			case 0:
				m.SetPriority(fs.FileID(1+rng.Intn(3)), rng.Intn(3)-1)
			case 1:
				m.SetPolicy(rng.Intn(3)-1, acm.Policy(rng.Intn(2)))
			case 2:
				lo := int32(rng.Intn(30))
				m.SetTempPri(h.c, fs.FileID(1+rng.Intn(3)), lo, lo+int32(rng.Intn(5)), rng.Intn(3)-1)
			case 3:
				// Revocation must leave evictions and transfers of the
				// owner's still-linked blocks structurally clean.
				h.c.Owner(1 + rng.Intn(2)).Revoked = rng.Intn(2) == 0
			default:
				owner := 1 + rng.Intn(2)
				id := cache.BlockID{File: fs.FileID(1 + rng.Intn(3)), Num: int32(rng.Intn(30))}
				if h.c.LookupBy(id, owner, 0, 8192) == nil {
					h.c.Insert(id, owner, h.now)
				}
			}
			if i%250 == 0 {
				h.a.CheckInvariants()
				h.c.CheckInvariants()
			}
		}
		h.a.CheckInvariants()
		h.c.CheckInvariants()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// poolEntry is one block of a pool snapshot: its id and Temp flag.
type poolEntry struct {
	id   cache.BlockID
	temp bool
}

// snapshotPools records every non-empty pool of m, LRU end first.
func snapshotPools(h *harness, m *acm.Manager) map[int][]poolEntry {
	pools := make(map[int][]poolEntry)
	for _, ls := range m.LevelSizes(nil) {
		for _, id := range m.PoolOrder(ls.Prio) {
			pools[ls.Prio] = append(pools[ls.Prio], poolEntry{id, h.c.Peek(id).ACM().Temp})
		}
	}
	return pools
}

// walkSetTempPri is SetTempPri as it was before it went through the cache
// index, applied to a snapshot: collect the file's blocks by walking every
// pool in ascending priority, LRU end first, then move each one in range
// to the later-replaced end of the destination pool, in the order found.
func walkSetTempPri(pools map[int][]poolEntry, prios []int, file fs.FileID, start, end int32, prio int, dstPol acm.Policy, temp bool) {
	type found struct {
		prio int
		id   cache.BlockID
	}
	var nodes []found
	for _, p := range prios {
		for _, e := range pools[p] {
			if e.id.File == file {
				nodes = append(nodes, found{p, e.id})
			}
		}
	}
	for _, nd := range nodes {
		if nd.id.Num < start || nd.id.Num > end {
			continue
		}
		src := pools[nd.prio]
		i := slices.IndexFunc(src, func(e poolEntry) bool { return e.id == nd.id })
		if nd.prio == prio {
			src[i].temp = temp
			continue
		}
		pools[nd.prio] = slices.Delete(src, i, i+1)
		if dstPol == acm.LRU {
			pools[prio] = append(pools[prio], poolEntry{nd.id, temp})
		} else {
			pools[prio] = slices.Insert(pools[prio], 0, poolEntry{nd.id, temp})
		}
	}
	for p, l := range pools {
		if len(l) == 0 {
			delete(pools, p)
		}
	}
}

// TestQuickSetTempPriMatchesWalk drives random traffic — two managed
// owners over shared files, ownership transfer, policy and priority
// changes, a level limit that leaves some blocks unmanaged — and checks
// every SetTempPri against the pool walk it replaced: same pool
// membership and Temp flags always, and the same list order whenever the
// range is one block, which is every call the workloads make. (A range of
// several blocks relinks in ascending block number, which the walk did
// not promise.) Ranges come narrow (index probes) and wider than the pool
// (the pool-walk branch).
func TestQuickSetTempPriMatchesWalk(t *testing.T) {
	byID := func(a, b poolEntry) int {
		if c := cmp.Compare(a.id.File, b.id.File); c != 0 {
			return c
		}
		return cmp.Compare(a.id.Num, b.id.Num)
	}
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		h := &harness{}
		limits := acm.DefaultLimits
		if seed%2 == 0 {
			limits.MaxLevels = 2
		}
		h.a = acm.New(func() sim.Time { return h.now }, limits)
		h.c = cache.New(cache.Config{Capacity: 24, Alloc: cache.LRUSP, SharedTransfer: true}, h.a)
		m, _ := h.a.CreateManager(1)
		if _, err := h.a.CreateManager(2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			switch rng.Intn(10) {
			case 0:
				m.SetPriority(fs.FileID(1+rng.Intn(3)), rng.Intn(3)-1)
			case 1:
				m.SetPolicy(rng.Intn(3)-1, acm.Policy(rng.Intn(2)))
			case 2, 3, 4:
				file, prio := fs.FileID(1+rng.Intn(3)), rng.Intn(3)-1
				start := int32(rng.Intn(30))
				end := start
				switch rng.Intn(4) {
				case 0:
					end = start + int32(rng.Intn(6))
				case 1:
					start, end = 0, math.MaxInt32
				}
				want := snapshotPools(h, m)
				var prios []int
				for p := range want {
					prios = append(prios, p)
				}
				slices.Sort(prios)
				if err := m.SetTempPri(h.c, file, start, end, prio); err != nil {
					continue // level limit: neither version moves anything
				}
				walkSetTempPri(want, prios, file, start, end, prio, m.PolicyOf(prio), prio != m.Priority(file))
				got := snapshotPools(h, m)
				if start != end {
					for _, pools := range []map[int][]poolEntry{want, got} {
						for _, l := range pools {
							slices.SortFunc(l, byID)
						}
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d op %d: SetTempPri(file %d, [%d, %d], prio %d):\n got %v\nwant %v", seed, i, file, start, end, prio, got, want)
					return false
				}
			default:
				owner := 1 + rng.Intn(2)
				id := cache.BlockID{File: fs.FileID(1 + rng.Intn(3)), Num: int32(rng.Intn(30))}
				if h.c.LookupBy(id, owner, 0, 8192) == nil {
					h.c.Insert(id, owner, h.now)
				}
			}
		}
		h.a.CheckInvariants()
		h.c.CheckInvariants()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestReplaceBlockNoManagerReturnsCandidate(t *testing.T) {
	// The cache never consults an unmanaged owner, but the ACM must
	// still answer defensively (the paper: "if the manager process does
	// not exist or is uncooperative, the kernel simply replaces the
	// candidate").
	h := newHarness(t, 4, cache.LRUSP)
	h.a.CreateManager(1)
	h.read(1, 1, 0)
	b := h.c.Peek(cache.BlockID{File: 1, Num: 0})
	b.Owner = 9 // simulate a process whose manager vanished
	if got := h.a.ReplaceBlock(b, cache.BlockID{File: 1, Num: 5}); got != b {
		t.Error("ACM did not fall back to the candidate for an unmanaged owner")
	}
}

func TestBlockAccessedUnmanagedNoop(t *testing.T) {
	h := newHarness(t, 4, cache.LRUSP)
	h.a.CreateManager(1)
	h.read(1, 1, 0)
	b := h.c.Peek(cache.BlockID{File: 1, Num: 0})
	h.a.DestroyManager(1)
	// Aux was cleared; these must all be harmless no-ops.
	h.a.BlockAccessed(b, 0, 8192)
	h.a.BlockGone(b)
	h.a.PlaceholderUsed(cache.BlockID{File: 1, Num: 7}, b)
	h.a.CheckInvariants()
}

func TestPoolOrderMissingLevel(t *testing.T) {
	h := newHarness(t, 4, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	if m.PoolOrder(42) != nil {
		t.Error("PoolOrder of a missing level not nil")
	}
}

func TestVictimAllBusy(t *testing.T) {
	// Every block of the only pool is mid-I/O: the manager can offer
	// nothing and must fall back to the candidate.
	h := newHarness(t, 3, cache.LRUSP)
	h.a.CreateManager(1)
	h.read(1, 1, 0)
	h.read(1, 1, 1)
	for _, n := range []int32{0, 1} {
		h.c.Peek(cache.BlockID{File: 1, Num: n}).ValidAt = 1 << 40
	}
	cand := h.c.Peek(cache.BlockID{File: 1, Num: 0})
	if got := h.a.ReplaceBlock(cand, cache.BlockID{File: 1, Num: 9}); got != cand {
		t.Errorf("expected candidate fallback, got %v", got.ID)
	}
}

func TestSetTempPriSamePriorityClearsTemp(t *testing.T) {
	// set_temppri to the file's own long-term priority is a positional
	// move without the temp flag: the block must not "revert" later.
	h := newHarness(t, 4, cache.LRUSP)
	m, _ := h.a.CreateManager(1)
	h.read(1, 3, 0)
	h.read(1, 3, 1)
	if err := m.SetTempPri(h.c, 3, 0, 0, acm.DefaultPriority); err != nil {
		t.Fatal(err)
	}
	sizes := levelSizes(m)
	if sizes[0] != 2 {
		t.Fatalf("LevelSizes = %v", sizes)
	}
	h.a.CheckInvariants()
}

// TestRevokedOwnerEvictionUnlinks: revocation flips managed() off but
// does not unlink the owner's blocks from its ACM levels, so block_gone
// must still fire when those blocks are evicted. Before the fix the
// eviction skipped block_gone, freeBuf zeroed the still-linked embedded
// node, and the recycled buffer was relinked into another owner's level
// — corrupting both intrusive lists.
func TestRevokedOwnerEvictionUnlinks(t *testing.T) {
	h := newHarness(t, 4, cache.LRUSP)
	if _, err := h.a.CreateManager(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.a.CreateManager(2); err != nil {
		t.Fatal(err)
	}
	for b := int32(0); b < 4; b++ {
		h.read(1, 1, b)
	}
	h.c.Owner(1).Revoked = true
	// Evict all of owner 1's blocks; the recycled buffers are reused for
	// owner 2's blocks and linked into owner 2's level.
	for b := int32(0); b < 8; b++ {
		h.read(2, 2, b)
	}
	h.a.CheckInvariants()
	h.c.CheckInvariants()
	if m, _ := h.a.ManagerOf(1); m.GoneBlocks != 4 {
		t.Errorf("GoneBlocks = %d, want 4: revoked owner's evictions must still unlink", m.GoneBlocks)
	}
}

// TestSharedTransferFromRevokedOwner: same root cause on the ownership
// transfer path — a hit by another process on a revoked owner's block
// must unlink the embedded node from the old level before new_block
// links it into the accessor's, or the two level lists get spliced.
func TestSharedTransferFromRevokedOwner(t *testing.T) {
	h := &harness{}
	h.a = acm.New(func() sim.Time { return h.now }, acm.Limits{})
	h.c = cache.New(cache.Config{Capacity: 8, Alloc: cache.LRUSP, SharedTransfer: true}, h.a)
	if _, err := h.a.CreateManager(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.a.CreateManager(2); err != nil {
		t.Fatal(err)
	}
	h.read(1, 1, 0)
	h.read(1, 1, 1)
	h.read(2, 2, 0)
	h.c.Owner(1).Revoked = true
	// Owner 2 hits owner 1's block: ownership transfers.
	if b := h.c.LookupBy(cache.BlockID{File: 1, Num: 0}, 2, 0, 8192); b == nil {
		t.Fatal("expected hit")
	}
	h.a.CheckInvariants()
	h.c.CheckInvariants()
	if got := h.c.Stats().Transfers; got != 1 {
		t.Errorf("Transfers = %d, want 1", got)
	}
}

// TestBlockAccessedZeroAllocs pins the intrusive-node design: the
// block_accessed upcall — node reached through the buffer header, no
// interface boxing or type assertion, recency relink in place — must
// not allocate in steady state, since it runs once per simulated cache
// hit.
func TestBlockAccessedZeroAllocs(t *testing.T) {
	h := newHarness(t, 64, cache.LRUSP)
	if _, err := h.a.CreateManager(1); err != nil {
		t.Fatal(err)
	}
	for b := int32(0); b < 64; b++ {
		h.read(1, 2, b)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for b := int32(0); b < 64; b++ {
			if !h.read(1, 2, b) {
				t.Fatal("warm block missed")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("block_accessed allocated %.1f times per run, want 0", allocs)
	}
}
