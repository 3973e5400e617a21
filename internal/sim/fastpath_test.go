package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestFastPathSingleSleeper pins the basic lookahead: a lone process
// advancing the clock pays no heap traffic and (nearly) no handoffs.
func TestFastPathSingleSleeper(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Millisecond)
		}
	})
	e.Run()
	st := e.Stats()
	if st.FastAdvances != 100 {
		t.Errorf("FastAdvances = %d, want 100", st.FastAdvances)
	}
	// One handoff to start the body; none per sleep.
	if st.Handoffs != 1 {
		t.Errorf("Handoffs = %d, want 1", st.Handoffs)
	}
	// Only the spawn event is ever scheduled.
	if st.EventsScheduled != 1 {
		t.Errorf("EventsScheduled = %d, want 1", st.EventsScheduled)
	}
	if e.Now() != 100*Millisecond {
		t.Errorf("ended at %v, want 100ms", e.Now())
	}
}

// TestFastPathDisabled proves DisableFastPath restores the all-parked
// engine: same results, zero fast advances, one event per sleep.
func TestFastPathDisabled(t *testing.T) {
	e := New(DisableFastPath)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Millisecond)
		}
	})
	e.Run()
	st := e.Stats()
	if st.FastAdvances != 0 {
		t.Errorf("FastAdvances = %d, want 0 with DisableFastPath", st.FastAdvances)
	}
	if st.EventsScheduled != 101 { // spawn + 100 sleeps
		t.Errorf("EventsScheduled = %d, want 101", st.EventsScheduled)
	}
	if st.Handoffs != 101 {
		t.Errorf("Handoffs = %d, want 101", st.Handoffs)
	}
	if e.Now() != 100*Millisecond {
		t.Errorf("ended at %v, want 100ms", e.Now())
	}
}

// TestFastPathTieParks pins the tie rule: a sleep landing exactly on the
// heap's top event must park, because that event was scheduled first and
// sequence numbers order same-instant wake-ups.
func TestFastPathTieParks(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.SleepUntil(100) // ties with b's start event: must run after b
		order = append(order, "a")
	})
	e.SpawnAt("b", 100, func(p *Proc) {
		order = append(order, "b")
	})
	e.Run()
	// a was spawned first, so a runs first at t=0 and calls
	// SleepUntil(100). b's start event already sits at t=100; a naive
	// fast path would advance inline and record "a" first.
	if want := []string{"b", "a"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v (tie must go through the scheduler)", order, want)
	}
	if e.Stats().FastAdvances != 0 {
		t.Errorf("FastAdvances = %d, want 0 (both wake-ups tie-constrained)", e.Stats().FastAdvances)
	}
}

// TestFastPathEarlierEventParks: sleeping past another process's earlier
// wake-up must park so that process runs first.
func TestFastPathEarlierEventParks(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("late", func(p *Proc) {
		p.SleepUntil(200)
		order = append(order, "late")
	})
	e.SpawnAt("early", 100, func(p *Proc) {
		order = append(order, "early")
	})
	e.Run()
	if want := []string{"early", "late"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestFastPathYieldSkipsHeap: Yield with no same-instant event pending is
// free; with one pending it parks and lets the other process run.
func TestFastPathYieldSkipsHeap(t *testing.T) {
	e := New()
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Yield()
		}
	})
	e.Run()
	if st := e.Stats(); st.FastAdvances != 10 || st.EventsScheduled != 1 {
		t.Errorf("solo yield: FastAdvances=%d EventsScheduled=%d, want 10 and 1",
			st.FastAdvances, st.EventsScheduled)
	}

	// With a same-instant event pending, Yield must reach the scheduler.
	e2 := New()
	var order []string
	e2.Spawn("y", func(p *Proc) {
		p.Yield() // peer's start event is at the same instant
		order = append(order, "y")
	})
	e2.Spawn("peer", func(p *Proc) {
		order = append(order, "peer")
	})
	e2.Run()
	if want := []string{"peer", "y"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestFastPathHeapHighWater sanity-checks the high-water counter.
func TestFastPathHeapHighWater(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.SpawnAt("p", Time(i), func(p *Proc) {})
	}
	e.Run()
	if hw := e.Stats().HeapHighWater; hw != 7 {
		t.Errorf("HeapHighWater = %d, want 7", hw)
	}
}

// TestSleepFastPathZeroAllocs is the allocation gate for the tentpole:
// a fast-path sleep is an inline clock bump and must not allocate.
func TestSleepFastPathZeroAllocs(t *testing.T) {
	e := New()
	var allocs float64
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1) // warm up
		allocs = testing.AllocsPerRun(200, func() {
			p.Sleep(1)
		})
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("fast-path Sleep allocated %.1f times per call, want 0", allocs)
	}
}

// scenarioOp is one step of a random process in the equivalence test.
type scenarioOp struct {
	// 0 sleep, 1 yield, 2 cond wait, 3 cond signal, 4 spawn child,
	// 5 callback that signals, 6 re-arming callback, 7 sleep across a
	// callback that schedules another at the sleeper's own wake time
	kind int
	arg  Time
}

// buildScenario derives a deterministic random mix of sleepers, yielders,
// cond-waiters, signallers, mid-run spawns and callback events from the
// seed.
func buildScenario(seed uint64) [][]scenarioOp {
	r := NewRand(seed)
	procs := make([][]scenarioOp, 2+r.Intn(4))
	for i := range procs {
		ops := make([]scenarioOp, 3+r.Intn(8))
		for j := range ops {
			ops[j] = scenarioOp{kind: r.Intn(8), arg: Time(r.Intn(40))}
		}
		procs[i] = ops
	}
	return procs
}

// runScenario executes the scenario and returns the full observable
// ordering: every step of every process and every callback tagged with
// its virtual time, plus the final clock; and the engine's counters.
func runScenario(procs [][]scenarioOp, opts ...Option) ([]string, Stats) {
	var log []string
	e := New(opts...)
	c := e.NewCond()
	// A periodic broadcast guarantees cond-waiters always wake, so no
	// random mix can deadlock; it is also what is still scheduled when
	// the last process returns.
	every(e, 7, func() {
		log = append(log, fmt.Sprintf("tick@%d", e.Now()))
		c.Broadcast()
	})
	children, callbacks := 0, 0
	for i, ops := range procs {
		name := fmt.Sprintf("p%d", i)
		ops := ops
		e.Spawn(name, func(p *Proc) {
			for j, o := range ops {
				switch o.kind {
				case 0:
					p.Sleep(o.arg)
				case 1:
					p.Yield()
				case 2:
					c.Wait(p)
				case 3:
					c.Signal()
				case 4:
					children++
					cn := fmt.Sprintf("%s.c%d", name, children)
					e.SpawnAt(cn, p.Now()+o.arg, func(cp *Proc) {
						cp.Sleep(o.arg)
						log = append(log, fmt.Sprintf("%s@%d", cn, cp.Now()))
					})
				case 5:
					callbacks++
					cb := fmt.Sprintf("%s.cb%d", name, callbacks)
					e.At(p.Now()+o.arg, func() {
						log = append(log, fmt.Sprintf("%s@%d", cb, e.Now()))
						c.Signal()
					})
				case 6:
					callbacks++
					cb := fmt.Sprintf("%s.cb%d", name, callbacks)
					left := 3
					var fire func()
					fire = func() {
						log = append(log, fmt.Sprintf("%s.%d@%d", cb, left, e.Now()))
						if left--; left > 0 {
							e.At(e.Now()+o.arg/3, fire)
						}
					}
					e.At(p.Now()+o.arg/3, fire)
				case 7:
					// The inner callback lands on the instant p wakes
					// but was scheduled after p went to sleep, so p goes
					// first whether its wake-up sat in the heap or was
					// only a reserved number.
					callbacks++
					cb := fmt.Sprintf("%s.cb%d", name, callbacks)
					wake := p.Now() + o.arg
					e.At(p.Now()+o.arg/2, func() {
						log = append(log, fmt.Sprintf("%s@%d", cb, e.Now()))
						e.At(wake, func() {
							log = append(log, fmt.Sprintf("%s.inner@%d", cb, e.Now()))
						})
					})
					p.SleepUntil(wake)
				}
				log = append(log, fmt.Sprintf("%s.%d@%d", name, j, p.Now()))
			}
		})
	}
	e.Run()
	log = append(log, fmt.Sprintf("end@%d", e.Now()))
	return log, e.Stats()
}

// TestQuickFastParkedEquivalence is the differential property test: for
// random mixes of two to five sleepers, yielders, cond-waiters, signallers,
// mid-run spawns and callbacks (signalling, re-arming, landing on a sleeper's
// own wake time), the engine in which waiting processes dispatch for
// themselves must produce exactly the same event ordering as the all-parked
// engine, and must actually have dispatched: callbacks from whoever waited,
// and processes from the root.
func TestQuickFastParkedEquivalence(t *testing.T) {
	var inline, switches, parkedSwitches, rootReturns int64
	for seed := uint64(1); seed <= 200; seed++ {
		procs := buildScenario(seed)
		fast, fastStats := runScenario(procs)
		parked, parkedStats := runScenario(procs, DisableFastPath)
		if !reflect.DeepEqual(fast, parked) {
			t.Fatalf("seed %d: orderings diverge\nfast:   %v\nparked: %v", seed, fast, parked)
		}
		if parkedStats.FastAdvances != 0 {
			t.Fatalf("seed %d: %d fast advances with DisableFastPath", seed, parkedStats.FastAdvances)
		}
		// All-parked, every start and every wait that ends is a hand-off.
		// Otherwise a wait ends in a hand-off, in a fast advance, or — what
		// is left — in the root returning after resuming those ahead of it.
		nested := parkedStats.Handoffs - fastStats.Handoffs - fastStats.FastAdvances
		if nested < 0 {
			t.Fatalf("seed %d: %d hand-offs + %d fast advances exceed the %d hand-offs all-parked",
				seed, fastStats.Handoffs, fastStats.FastAdvances, parkedStats.Handoffs)
		}
		inline += fastStats.FastAdvances
		switches += fastStats.Handoffs
		parkedSwitches += parkedStats.Handoffs
		rootReturns += nested
	}
	// Handoffs counted one engine round trip per resume before the root
	// existed as well, so these totals compare with PR 14's (839 inline,
	// 3268 hand-offs against 4107): the root's returns come off the 3268.
	if inline == 0 || rootReturns == 0 || switches >= parkedSwitches {
		t.Errorf("%d waits returned inline, %d with the root having resumed others, and %d switched, against %d switches all-parked: the inline paths were not exercised",
			inline, rootReturns, switches, parkedSwitches)
	}
	t.Logf("%d inline, %d root returns, %d handoffs; all-parked %d handoffs", inline, rootReturns, switches, parkedSwitches)
}
