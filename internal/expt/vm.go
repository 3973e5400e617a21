package expt

import (
	"fmt"

	"repro/internal/vmclock"
)

// vmMRUManager evicts its most-recently-faulted page: smart for a loop
// larger than memory, foolish for a repeat-then-advance (ReadN) pattern.
type vmMRUManager struct{ recent []*vmclock.Page }

func (m *vmMRUManager) PageIn(pg *vmclock.Page) { m.recent = append(m.recent, pg) }
func (m *vmMRUManager) PageOut(pg *vmclock.Page) {
	for i, p := range m.recent {
		if p == pg {
			m.recent = append(m.recent[:i], m.recent[i+1:]...)
			return
		}
	}
}
func (m *vmMRUManager) ChooseVictim(c *vmclock.Page, _ []*vmclock.Page) *vmclock.Page {
	if len(m.recent) > 0 && m.recent[len(m.recent)-1] != c {
		return m.recent[len(m.recent)-1]
	}
	return c
}
func (m *vmMRUManager) MistakeCaught(vmclock.PageID, *vmclock.Page) {}

// VM explores the paper's Section 7 conjecture that two-level replacement
// transfers to virtual-memory page replacement: the same smart-process,
// swapping, and placeholder questions are asked of a two-handed clock.
// The clock experiments run no simulated machines, so the Runner is
// unused; the parameter keeps VM in the common driver signature.
func VM(*Runner) []Table {
	t := Table{
		ID:    "vm",
		Title: "Two-level replacement on a two-handed clock (Section 7 conjecture)",
		Note: "The paper conjectures its techniques transfer to VM page " +
			"replacement. Measured here: a smart manager beats the plain clock " +
			"on a loop; placeholders protect an innocent neighbour from a " +
			"foolish manager; but swapping — essential for an LRU list — is " +
			"nearly neutral on a clock, whose rotating hand already avoids " +
			"re-picking an overruled candidate. Faults, lower is better.",
		Header: []string{"experiment", "variant", "faults A", "faults B"},
	}

	// 1. Smart manager vs plain clock on a 48-page loop in 32 frames.
	loopRun := func(smart bool) int64 {
		c := vmclock.New(vmclock.Config{Frames: 32, Swapping: true, Placeholders: true})
		if smart {
			c.SetManager(1, &vmMRUManager{})
		}
		for pass := 0; pass < 6; pass++ {
			for v := int32(0); v < 48; v++ {
				c.Access(vmclock.PageID{Proc: 1, VPage: v})
			}
		}
		return c.Stats().Faults
	}
	t.Rows = append(t.Rows,
		[]string{"loop 48 in 32 frames", "plain clock", fmt.Sprint(loopRun(false)), ""},
		[]string{"loop 48 in 32 frames", "smart manager", fmt.Sprint(loopRun(true)), ""},
	)

	// 2. Foolish ReadN-style process next to an innocent neighbour, with
	// and without placeholders.
	foolRun := func(placeholders bool) (int64, int64) {
		c := vmclock.New(vmclock.Config{Frames: 24, Swapping: true, Placeholders: placeholders})
		c.SetManager(1, &vmMRUManager{})
		var fool, victim int64
		for group := 0; group < 8; group++ {
			for rep := 0; rep < 5; rep++ {
				for v := 0; v < 10; v++ {
					if c.Access(vmclock.PageID{Proc: 1, VPage: int32(group*10 + v)}) {
						fool++
					}
				}
				for v := 0; v < 10; v++ {
					if c.Access(vmclock.PageID{Proc: 2, VPage: int32(v)}) {
						victim++
					}
				}
			}
		}
		return fool, victim
	}
	fw, vw := foolRun(false)
	fp, vp := foolRun(true)
	t.Rows = append(t.Rows,
		[]string{"foolish + neighbour", "no placeholders", fmt.Sprint(fw), fmt.Sprint(vw)},
		[]string{"foolish + neighbour", "placeholders", fmt.Sprint(fp), fmt.Sprint(vp)},
	)

	// 3. Swapping on/off for a smart process under a streaming neighbour.
	swapRun := func(swapping bool) int64 {
		c := vmclock.New(vmclock.Config{Frames: 32, Swapping: swapping, Placeholders: true})
		c.SetManager(1, &vmMRUManager{})
		var faults int64
		stream := int32(0)
		for pass := 0; pass < 10; pass++ {
			for v := int32(0); v < 40; v++ {
				if c.Access(vmclock.PageID{Proc: 1, VPage: v}) {
					faults++
				}
				if v%3 == 0 {
					c.Access(vmclock.PageID{Proc: 2, VPage: stream})
					stream++
				}
			}
		}
		return faults
	}
	t.Rows = append(t.Rows,
		[]string{"smart + streamer", "no swapping", fmt.Sprint(swapRun(false)), ""},
		[]string{"smart + streamer", "swapping", fmt.Sprint(swapRun(true)), ""},
	)
	return []Table{t}
}
