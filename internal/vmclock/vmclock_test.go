package vmclock

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// acceptAll is a manager that always takes the clock's suggestion —
// oblivious, but through the two-level path.
type acceptAll struct{ ins, outs int }

func (m *acceptAll) PageIn(*Page)                          { m.ins++ }
func (m *acceptAll) PageOut(*Page)                         { m.outs++ }
func (m *acceptAll) ChooseVictim(c *Page, _ []*Page) *Page { return c }
func (m *acceptAll) MistakeCaught(PageID, *Page)           {}

// mruOfFaults evicts its most-recently-faulted page. For a loop larger
// than memory that is the smart choice; for a ReadN-style pattern (repeat
// a group five times, then move to fresh pages) it is foolish: it keeps
// dead old-group pages forever while churning the live group.
type mruOfFaults struct{ recent []*Page }

func (m *mruOfFaults) PageIn(pg *Page) { m.recent = append(m.recent, pg) }
func (m *mruOfFaults) PageOut(pg *Page) {
	for i, p := range m.recent {
		if p == pg {
			m.recent = append(m.recent[:i], m.recent[i+1:]...)
			return
		}
	}
}
func (m *mruOfFaults) ChooseVictim(c *Page, _ []*Page) *Page {
	if len(m.recent) > 0 && m.recent[len(m.recent)-1] != c {
		return m.recent[len(m.recent)-1]
	}
	return c
}
func (m *mruOfFaults) MistakeCaught(PageID, *Page) {}

func id(proc int, v int32) PageID { return PageID{Proc: proc, VPage: v} }

func TestBasicFaultAndResidency(t *testing.T) {
	c := New(Config{Frames: 4})
	if !c.Access(id(1, 0)) {
		t.Error("first access did not fault")
	}
	if c.Access(id(1, 0)) {
		t.Error("second access faulted")
	}
	if !c.Resident(id(1, 0)) || c.Resident(id(1, 9)) {
		t.Error("residency wrong")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Faults != 1 {
		t.Errorf("stats = %+v", st)
	}
	c.CheckInvariants()
}

func TestClockEvictsUnreferenced(t *testing.T) {
	c := New(Config{Frames: 4})
	for v := int32(0); v < 4; v++ {
		c.Access(id(1, v))
	}
	// Keep touching pages 1-3; page 0's bit goes stale.
	for i := 0; i < 8; i++ {
		for v := int32(1); v < 4; v++ {
			c.Access(id(1, v))
		}
		// Hand movement only happens on faults; force sweeps with
		// new pages and re-touch the survivors.
		c.Access(id(1, 10+int32(i)))
	}
	if c.Resident(id(1, 0)) {
		t.Error("stale page 0 survived repeated eviction rounds")
	}
	c.CheckInvariants()
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero frames did not panic")
		}
	}()
	New(Config{})
}

func TestManagerLifecycle(t *testing.T) {
	c := New(Config{Frames: 3, Swapping: true, Placeholders: true})
	m := &acceptAll{}
	c.SetManager(1, m)
	for v := int32(0); v < 5; v++ {
		c.Access(id(1, v))
	}
	if m.ins != 5 || m.outs != 2 {
		t.Errorf("manager saw %d ins, %d outs; want 5, 2", m.ins, m.outs)
	}
	c.SetManager(1, nil)
	c.Access(id(1, 9))
	if m.ins != 5 {
		t.Error("removed manager still notified")
	}
	c.CheckInvariants()
}

func TestInvalidVictimPanics(t *testing.T) {
	c := New(Config{Frames: 2, Swapping: true})
	c.SetManager(1, managerFunc(func(cand *Page, _ []*Page) *Page {
		return &Page{ID: id(1, 99)} // not resident
	}))
	c.Access(id(1, 0))
	c.Access(id(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("invalid victim did not panic")
		}
	}()
	c.Access(id(1, 2))
}

// managerFunc adapts a function to the Manager interface.
type managerFunc func(*Page, []*Page) *Page

func (managerFunc) PageIn(*Page)                            {}
func (managerFunc) PageOut(*Page)                           {}
func (f managerFunc) ChooseVictim(c *Page, r []*Page) *Page { return f(c, r) }
func (managerFunc) MistakeCaught(PageID, *Page)             {}

// TestObliviousEqualsPlainClock is criterion 1 in the VM setting: a
// process whose manager always accepts the candidate faults exactly as
// often as under the plain clock, for any access pattern.
func TestObliviousEqualsPlainClock(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		refs := make([]PageID, 3000)
		for i := range refs {
			refs[i] = id(1+rng.Intn(2), int32(rng.Intn(25)))
		}
		run := func(managed bool) int64 {
			c := New(Config{Frames: 16, Swapping: true, Placeholders: true})
			if managed {
				c.SetManager(1, &acceptAll{})
				c.SetManager(2, &acceptAll{})
			}
			for _, r := range refs {
				c.Access(r)
			}
			c.CheckInvariants()
			return c.Stats().Faults
		}
		return run(false) == run(true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSmartManagerBeatsClockOnCycle: the paper's headline, in VM form. A
// cyclic scan larger than memory thrashes under the clock; a manager
// evicting its most-recently-faulted page keeps a stable resident set.
func TestSmartManagerBeatsClockOnCycle(t *testing.T) {
	const frames, loop, passes = 32, 48, 6
	run := func(smart bool) int64 {
		c := New(Config{Frames: frames, Swapping: true, Placeholders: true})
		if smart {
			c.SetManager(1, &mruOfFaults{})
		}
		for p := 0; p < passes; p++ {
			for v := int32(0); v < loop; v++ {
				c.Access(id(1, v))
			}
		}
		c.CheckInvariants()
		return c.Stats().Faults
	}
	clock, smart := run(false), run(true)
	if clock < loop*(passes-1) {
		t.Errorf("plain clock faults = %d; expected heavy thrash", clock)
	}
	if smart*2 >= clock {
		t.Errorf("smart faults = %d, not far below clock's %d", smart, clock)
	}
}

// TestSwappingNearNeutralInClock records a finding of this reproduction:
// in the two-handed clock, swapping — essential for the LRU list, where a
// stale overruled candidate otherwise stays at the LRU end and is re-
// picked on every miss — is close to neutral, because the hand's rotation
// already moves past an overruled candidate and will not reconsider it for
// a full revolution. The test pins the behaviour: a smart process under a
// streaming neighbour must fault within 15% of its no-swap count either
// way (measured: swapping costs a few extra faults, never helps much).
func TestSwappingNearNeutralInClock(t *testing.T) {
	run := func(swapping bool) int64 {
		c := New(Config{Frames: 32, Swapping: swapping, Placeholders: true})
		c.SetManager(1, &mruOfFaults{}) // smart for a loop
		var f1 int64
		stream := int32(0)
		for pass := 0; pass < 10; pass++ {
			for v := int32(0); v < 40; v++ {
				if c.Access(id(1, v)) {
					f1++
				}
				if v%3 == 0 {
					c.Access(id(2, stream))
					stream++
				}
			}
		}
		c.CheckInvariants()
		return f1
	}
	with, without := run(true), run(false)
	lo, hi := float64(without)*0.85, float64(without)*1.15
	if f := float64(with); f < lo || f > hi {
		t.Errorf("swapping changed smart faults beyond the pinned band: %d with vs %d without", with, without)
	}
}

// TestPlaceholdersProtectInVM: the ReadN experiment in VM form. A foolish
// process repeats a group of pages five times then moves to fresh ones,
// under a manager that always evicts its most recent page — keeping dead
// old-group pages while churning the live group. Without placeholders its
// refaults keep taking the innocent neighbour's pages; with them the
// refault redirects at the dead page the manager wrongly kept.
func TestPlaceholdersProtectInVM(t *testing.T) {
	const frames, w1, w2 = 24, 10, 10
	run := func(placeholders bool) (foolFaults, victimFaults int64) {
		c := New(Config{Frames: frames, Swapping: true, Placeholders: placeholders})
		c.SetManager(1, &mruOfFaults{})
		var f1, f2 int64
		for group := 0; group < 8; group++ {
			for rep := 0; rep < 5; rep++ {
				for v := 0; v < w1; v++ {
					if c.Access(id(1, int32(group*w1+v))) {
						f1++
					}
				}
				for v := 0; v < w2; v++ {
					if c.Access(id(2, int32(v))) {
						f2++
					}
				}
			}
		}
		c.CheckInvariants()
		return f1, f2
	}
	foolWithout, victimWithout := run(false)
	foolWith, victimWith := run(true)
	if victimWithout < 3*int64(w2) {
		t.Fatalf("scenario too gentle: unprotected victim faulted only %d times", victimWithout)
	}
	if victimWith*2 > victimWithout {
		t.Errorf("placeholders did not protect the neighbour: %d faults with vs %d without",
			victimWith, victimWithout)
	}
	// And the damage stays with the fool.
	if foolWith < foolWithout-foolWithout/10 {
		t.Errorf("fool faults dropped unexpectedly: %d with vs %d without", foolWith, foolWithout)
	}
}

// TestQuickClockInvariants pounds the clock with random managed traffic.
func TestQuickClockInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		c := New(Config{Frames: 12, Swapping: true, Placeholders: true})
		c.SetManager(1, &mruOfFaults{})
		c.SetManager(2, &acceptAll{})
		for i := 0; i < 4000; i++ {
			c.Access(id(1+rng.Intn(3), int32(rng.Intn(30))))
			if i%500 == 0 {
				c.CheckInvariants()
			}
		}
		c.CheckInvariants()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestResidentCount(t *testing.T) {
	c := New(Config{Frames: 6})
	for v := int32(0); v < 3; v++ {
		c.Access(id(1, v))
	}
	c.Access(id(2, 0))
	if c.ResidentCount(1) != 3 || c.ResidentCount(2) != 1 {
		t.Errorf("ResidentCount = %d, %d", c.ResidentCount(1), c.ResidentCount(2))
	}
	if got := id(2, 7).String(); got != "p2:7" {
		t.Errorf("String = %q", got)
	}
}

func TestPageAccessorsAndPlaceholders(t *testing.T) {
	c := New(Config{Frames: 3, Swapping: true, Placeholders: true})
	c.SetManager(1, &mruOfFaults{})
	c.Access(id(1, 0))
	c.Access(id(1, 1))
	c.Access(id(1, 2))
	// Force an overrule: fault a fourth page; the manager gives up its
	// most recent (page 2) and a placeholder appears.
	c.Access(id(1, 3))
	if c.Placeholders() != 1 {
		t.Errorf("Placeholders = %d, want 1", c.Placeholders())
	}
	// Reference bits are readable by managers.
	found := false
	for _, pg := range c.residentOf(1) {
		if pg.Referenced() {
			found = true
		}
	}
	if !found {
		t.Error("no referenced pages visible")
	}
	c.CheckInvariants()
}

func TestHandGapClamped(t *testing.T) {
	// On circles too small for a quarter (Frames/4 is 0) the gap is one
	// frame, and the clock still cycles through every page.
	for _, frames := range []int{1, 2, 3} {
		c := New(Config{Frames: frames})
		if got := c.handGap(); got != 1 {
			t.Errorf("%d frames: hand gap %d, want 1", frames, got)
		}
		for v := int32(0); v < 6; v++ {
			c.Access(id(1, v))
		}
		if c.Stats().Faults != 6 {
			t.Errorf("%d frames: faults = %d", frames, c.Stats().Faults)
		}
		c.CheckInvariants()
	}
	if got := New(Config{Frames: 32}).handGap(); got != 8 {
		t.Errorf("32 frames: hand gap %d, want 8", got)
	}
}

func TestPlaceholderSuperseded(t *testing.T) {
	// Overruling the same page twice replaces its placeholder rather
	// than leaking one.
	c := New(Config{Frames: 3, Swapping: true, Placeholders: true})
	c.SetManager(1, &mruOfFaults{})
	for v := int32(0); v < 3; v++ {
		c.Access(id(1, v))
	}
	c.Access(id(1, 3)) // evicts 2, placeholder for 2
	c.Access(id(1, 2)) // placeholder consumed; evicts the pointee
	c.Access(id(1, 4))
	c.CheckInvariants()
	if c.Placeholders() > 2 {
		t.Errorf("placeholders leaked: %d", c.Placeholders())
	}
}

func TestAllReferencedFallback(t *testing.T) {
	// When every page's bit is set faster than the hands clear them, the
	// sweep's fallback still finds a victim instead of spinning forever.
	c := New(Config{Frames: 2})
	c.Access(id(1, 0))
	c.Access(id(1, 1))
	c.Access(id(1, 0)) // set bits
	c.Access(id(1, 1))
	c.Access(id(1, 2)) // must evict something despite all bits set
	if c.Stats().Faults != 3 {
		t.Errorf("faults = %d, want 3", c.Stats().Faults)
	}
	c.CheckInvariants()
}
