// Package vmclock carries the paper's two-level replacement idea into the
// virtual-memory setting, as Section 7 proposes: "one can swap positions
// of pages on the two-hand-clock list, and can build placeholders to
// catch foolish decisions."
//
// The base replacement algorithm is the classic BSD/Ultrix two-handed
// clock: physical frames form a circle; the front hand clears reference
// bits and the back hand, a fixed gap behind, examines them — a page
// whose bit is still clear when the back hand arrives has not been
// touched for one hand-gap and becomes the eviction candidate. On top of
// that sit the paper's two extensions:
//
//   - Swapping: when a process's manager overrules the clock's candidate
//     with another of its own pages, the two pages exchange positions in
//     the circle, so the manager is not penalized for protecting a page
//     the clock considered cold.
//   - Placeholders: the overruled eviction is recorded; a later fault on
//     that page redirects the candidate at the page the manager kept and
//     reports the mistake.
//
// Unlike the file cache, the VM system cannot capture the exact reference
// stream (the paper's own caveat): managers hear about faults and
// evictions, and may inspect reference bits, but never see individual
// accesses.
package vmclock

import "fmt"

// PageID names a virtual page of a process.
type PageID struct {
	Proc  int
	VPage int32
}

func (id PageID) String() string { return fmt.Sprintf("p%d:%d", id.Proc, id.VPage) }

// Page is one resident page.
type Page struct {
	ID  PageID
	ref bool // reference bit

	slot    int // position in the clock circle
	holders []*placeholder
}

// Referenced reports the page's reference bit (managers may inspect it).
func (p *Page) Referenced() bool { return p.ref }

// placeholder records an overruled eviction: forID was evicted while
// points was kept.
type placeholder struct {
	forID  PageID
	points *Page
}

// Manager is a process's pageout manager. ChooseVictim may return any
// resident page of the same process, or the candidate itself to accept
// the clock's choice.
type Manager interface {
	// PageIn reports that the process faulted id in.
	PageIn(pg *Page)
	// PageOut reports that pg was evicted.
	PageOut(pg *Page)
	// ChooseVictim picks which of the process's pages to give up;
	// resident lists every resident page of the process, candidate
	// included.
	ChooseVictim(candidate *Page, resident []*Page) *Page
	// MistakeCaught reports that an earlier overrule (evicting missing
	// while keeping pointed) was wrong.
	MistakeCaught(missing PageID, pointed *Page)
}

// Config configures a Clock.
type Config struct {
	// Frames is the number of physical frames.
	Frames int
	// Swapping and Placeholders enable the LRU-SP-style extensions.
	Swapping     bool
	Placeholders bool
}

// Stats counts clock events.
type Stats struct {
	Accesses        int64
	Faults          int64
	Evictions       int64
	Overrules       int64
	PlaceholderHits int64
	HandSteps       int64
}

// Clock is a two-handed-clock physical memory with optional two-level
// replacement.
type Clock struct {
	cfg      Config
	frames   []*Page
	back     int // examining hand; the clearing hand runs handGap ahead
	table    map[PageID]*Page
	managers map[int]Manager
	ph       map[PageID]*placeholder
	used     int
	stats    Stats
}

// New builds a clock memory.
func New(cfg Config) *Clock {
	if cfg.Frames <= 0 {
		panic("vmclock: non-positive frame count")
	}
	return &Clock{
		cfg:      cfg,
		frames:   make([]*Page, cfg.Frames),
		table:    make(map[PageID]*Page, cfg.Frames),
		managers: make(map[int]Manager),
		ph:       make(map[PageID]*placeholder),
	}
}

// handGap is the distance between the examining and clearing hands: a
// quarter of the circle (a common setting), at least one frame.
func (c *Clock) handGap() int { return max(1, len(c.frames)/4) }

// SetManager installs (or, with nil, removes) a process's pageout manager.
func (c *Clock) SetManager(proc int, m Manager) {
	if m == nil {
		delete(c.managers, proc)
		return
	}
	c.managers[proc] = m
}

// Stats returns a snapshot of the counters.
func (c *Clock) Stats() Stats { return c.stats }

// Resident reports whether the page is in memory.
func (c *Clock) Resident(id PageID) bool { return c.table[id] != nil }

// ResidentCount returns the number of resident pages for a process.
func (c *Clock) ResidentCount(proc int) int {
	n := 0
	for _, pg := range c.frames {
		if pg != nil && pg.ID.Proc == proc {
			n++
		}
	}
	return n
}

// Placeholders returns the number of live placeholders.
func (c *Clock) Placeholders() int { return len(c.ph) }

// Access touches a page, faulting it in if necessary, and reports whether
// a fault occurred. This is the MMU's view: a resident access just sets
// the reference bit.
func (c *Clock) Access(id PageID) bool {
	c.stats.Accesses++
	if pg := c.table[id]; pg != nil {
		pg.ref = true
		// Referencing a page a placeholder points at vindicates the
		// manager's decision, as in the file cache.
		for len(pg.holders) > 0 {
			c.dropPlaceholder(pg.holders[len(pg.holders)-1])
		}
		return false
	}
	c.stats.Faults++
	slot := c.freeSlot()
	if slot < 0 {
		slot = c.evictOne(id)
	}
	pg := &Page{ID: id, ref: true, slot: slot}
	c.frames[slot] = pg
	c.table[id] = pg
	c.used++
	if m := c.managers[id.Proc]; m != nil {
		m.PageIn(pg)
	}
	return true
}

// freeSlot returns an unused frame index, or -1 when memory is full.
func (c *Clock) freeSlot() int {
	if c.used >= len(c.frames) {
		return -1
	}
	for i, pg := range c.frames {
		if pg == nil {
			return i
		}
	}
	return -1
}

// evictOne chooses and evicts a page to make room for missing, returning
// the freed slot.
func (c *Clock) evictOne(missing PageID) int {
	candidate := c.pickCandidate(missing)
	chosen := candidate
	if m := c.managers[candidate.ID.Proc]; m != nil {
		if alt := m.ChooseVictim(candidate, c.residentOf(candidate.ID.Proc)); alt != nil && alt != candidate {
			if alt.ID.Proc != candidate.ID.Proc || c.table[alt.ID] != alt {
				panic(fmt.Sprintf("vmclock: manager %d offered invalid page %v", candidate.ID.Proc, alt.ID))
			}
			chosen = alt
			c.stats.Overrules++
			if c.cfg.Swapping {
				c.swapSlots(candidate, chosen)
			}
			if c.cfg.Placeholders {
				c.setPlaceholder(chosen.ID, candidate)
			}
		}
	}
	return c.evict(chosen)
}

// pickCandidate finds the eviction candidate: a placeholder for the
// missing page wins; otherwise the two hands sweep until the back hand
// finds a clear reference bit.
func (c *Clock) pickCandidate(missing PageID) *Page {
	if c.cfg.Placeholders {
		if ph := c.ph[missing]; ph != nil {
			pointed := ph.points
			c.dropPlaceholder(ph)
			c.stats.PlaceholderHits++
			if m := c.managers[pointed.ID.Proc]; m != nil {
				m.MistakeCaught(missing, pointed)
			}
			return pointed
		}
	}
	n, gap := len(c.frames), c.handGap()
	for sweep := 0; sweep < 2*n+1; sweep++ {
		front := (c.back + gap) % n
		if pg := c.frames[front]; pg != nil {
			pg.ref = false // clearing hand
		}
		pg := c.frames[c.back]
		c.back = (c.back + 1) % n
		c.stats.HandSteps++
		if pg != nil && !pg.ref {
			return pg
		}
	}
	// Every page is being referenced faster than the hands sweep; fall
	// back to the page under the back hand.
	for {
		pg := c.frames[c.back]
		c.back = (c.back + 1) % n
		if pg != nil {
			return pg
		}
	}
}

// residentOf lists a process's resident pages.
func (c *Clock) residentOf(proc int) []*Page {
	var out []*Page
	for _, pg := range c.frames {
		if pg != nil && pg.ID.Proc == proc {
			out = append(out, pg)
		}
	}
	return out
}

// swapSlots exchanges two pages' positions in the circle, so the kept
// candidate inherits the evicted page's distance from the hands.
func (c *Clock) swapSlots(a, b *Page) {
	c.frames[a.slot], c.frames[b.slot] = b, a
	a.slot, b.slot = b.slot, a.slot
}

// evict removes pg and returns its slot.
func (c *Clock) evict(pg *Page) int {
	delete(c.table, pg.ID)
	c.frames[pg.slot] = nil
	c.used--
	c.stats.Evictions++
	for _, ph := range pg.holders {
		delete(c.ph, ph.forID)
	}
	pg.holders = nil
	if m := c.managers[pg.ID.Proc]; m != nil {
		m.PageOut(pg)
	}
	return pg.slot
}

// setPlaceholder records an overruled eviction.
func (c *Clock) setPlaceholder(forID PageID, points *Page) {
	if old := c.ph[forID]; old != nil {
		c.dropPlaceholder(old)
	}
	ph := &placeholder{forID: forID, points: points}
	c.ph[forID] = ph
	points.holders = append(points.holders, ph)
}

func (c *Clock) dropPlaceholder(ph *placeholder) {
	delete(c.ph, ph.forID)
	hs := ph.points.holders
	for i, h := range hs {
		if h == ph {
			hs[i] = hs[len(hs)-1]
			ph.points.holders = hs[:len(hs)-1]
			break
		}
	}
}

// CheckInvariants panics on structural inconsistency.
func (c *Clock) CheckInvariants() {
	n := 0
	for i, pg := range c.frames {
		if pg == nil {
			continue
		}
		n++
		if pg.slot != i {
			panic(fmt.Sprintf("vmclock: page %v thinks it is in slot %d, found in %d", pg.ID, pg.slot, i))
		}
		if c.table[pg.ID] != pg {
			panic(fmt.Sprintf("vmclock: page %v not in table", pg.ID))
		}
	}
	if n != c.used || n != len(c.table) {
		panic(fmt.Sprintf("vmclock: used %d, frames %d, table %d disagree", c.used, n, len(c.table)))
	}
	for id, ph := range c.ph {
		if id != ph.forID {
			panic("vmclock: placeholder key mismatch")
		}
		if c.table[id] != nil {
			panic(fmt.Sprintf("vmclock: placeholder for resident page %v", id))
		}
		if c.table[ph.points.ID] != ph.points {
			panic(fmt.Sprintf("vmclock: placeholder for %v points at evicted page", id))
		}
	}
}
