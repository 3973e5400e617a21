package sim

import (
	"slices"
	"testing"
)

// bothModes runs the test body against the engine in which waiting
// processes dispatch for themselves and against the all-parked one; every
// ordering below must hold in both.
func bothModes(t *testing.T, body func(t *testing.T, e *Engine)) {
	t.Run("default", func(t *testing.T) { body(t, New()) })
	t.Run("DisableFastPath", func(t *testing.T) { body(t, New(DisableFastPath)) })
}

// TestCallbackAndWakeupSameInstant: a callback and a process wake-up due
// at the same instant run in the order they were scheduled, both ways
// round, whether the wake-up is a start, a parked sleep, or a sleep whose
// event never reached the heap.
func TestCallbackAndWakeupSameInstant(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		var order []string
		note := func(s string) func() { return func() { order = append(order, s) } }

		// t=10: a start scheduled before a callback, then one after.
		e.SpawnAt("start-first", 10, func(*Proc) { note("start-first")() })
		e.At(10, note("cb-between"))
		e.SpawnAt("start-last", 10, func(*Proc) { note("start-last")() })

		// t=20: the sleeper schedules the callback, then sleeps to the same
		// instant: callback first. t=30: it is asleep already when a
		// callback (at t=25) schedules one for the instant it wakes:
		// sleeper first.
		e.Spawn("sleeper", func(p *Proc) {
			e.At(20, note("cb-before-sleeper"))
			p.SleepUntil(20)
			note("sleeper@20")()
			e.At(25, func() { e.At(30, note("cb-after-sleeper")) })
			p.SleepUntil(30)
			note("sleeper@30")()
			p.Sleep(1) // keep the run alive past the last callback
		})
		e.Run()
		want := []string{
			"start-first", "cb-between", "start-last",
			"cb-before-sleeper", "sleeper@20",
			"sleeper@30", "cb-after-sleeper",
		}
		if !slices.Equal(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
	})
}

// TestCallbackSchedulesCallback: a callback may schedule another, for now
// (it runs after everything already due now) or for later.
func TestCallbackSchedulesCallback(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		var at []Time
		e.At(5, func() {
			at = append(at, e.Now())
			e.At(5, func() { at = append(at, e.Now()) })
			e.At(9, func() { at = append(at, e.Now()) })
		})
		e.Spawn("p", func(p *Proc) { p.Sleep(10) })
		e.Run()
		if want := []Time{5, 5, 9}; !slices.Equal(at, want) {
			t.Errorf("callbacks ran at %v, want %v", at, want)
		}
		if e.Now() != 10 {
			t.Errorf("ended at %v, want 10", e.Now())
		}
	})
}

// TestCallbackSignalsCond: a process waiting on a condition is released by
// a callback's Signal at the callback's time. By default the waiter runs
// the callback itself and returns without a switch; all-parked, the engine
// runs it and resumes the waiter.
func TestCallbackSignalsCond(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []Option
		handoffs int64
	}{
		{"default", nil, 1}, // the start, nothing else
		{"DisableFastPath", []Option{DisableFastPath}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.opts...)
			c := e.NewCond()
			var woke Time
			e.At(7, func() {
				if c.Waiters() != 1 {
					t.Errorf("%d waiters at the signal, want 1", c.Waiters())
				}
				c.Signal()
			})
			e.Spawn("w", func(p *Proc) {
				c.Wait(p)
				woke = p.Now()
			})
			e.Run()
			if woke != 7 {
				t.Errorf("waiter woke at %v, want 7", woke)
			}
			if got := e.Stats().Handoffs; got != tc.handoffs {
				t.Errorf("Handoffs = %d, want %d", got, tc.handoffs)
			}
		})
	}
}

// TestWaitParksBehindAnotherProcess: a waiter dispatching for itself stops
// at the first process wake-up. The callback behind it still runs, from
// the engine, and the signal it sends resumes the waiter by a switch.
func TestWaitParksBehindAnotherProcess(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		c := e.NewCond()
		var order []string
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			order = append(order, "w")
		})
		e.SpawnAt("other", 3, func(p *Proc) { order = append(order, "other") })
		e.At(5, func() {
			order = append(order, "cb")
			c.Signal()
		})
		e.Run()
		if want := []string{"other", "cb", "w"}; !slices.Equal(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
	})
}

// TestAtInThePastClampsToNow: a callback scheduled for a time already gone
// runs at the current instant, after what is already due then.
func TestAtInThePastClampsToNow(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		var ran []Time
		e.Spawn("p", func(p *Proc) {
			p.Sleep(100)
			e.At(40, func() { ran = append(ran, e.Now()) })
			p.Yield()
			ran = append(ran, -1) // the yield let the callback go first
			p.Sleep(1)
		})
		e.Run()
		if want := []Time{100, -1}; !slices.Equal(ran, want) {
			t.Errorf("ran = %v, want %v", ran, want)
		}
	})
}

// TestCallbackPanicReachesRunsCaller: a callback's panic comes out of Run
// with its value, whoever was dispatching, and the processes parked at the
// time are unwound.
func TestCallbackPanicReachesRunsCaller(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		unwound := 0
		c := e.NewCond()
		for i := 0; i < 2; i++ {
			e.Spawn("w", func(p *Proc) {
				defer func() { unwound++ }()
				c.Wait(p)
			})
		}
		e.At(4, func() { panic("cb") })
		e.At(5, func() { t.Error("a callback ran after the panic") })
		defer func() {
			if r := recover(); r != "cb" {
				t.Errorf("Run panicked with %v, want the callback's value", r)
			}
			if unwound != 2 {
				t.Errorf("%d waiters unwound, want 2", unwound)
			}
		}()
		e.Run()
	})
}

// TestCallbackWakeZeroAllocs is the allocation gate for events without a
// process: scheduling a callback, popping and running it from a waiting
// process, its Signal and the waiter's inline return allocate nothing in
// steady state. That includes the condition's waiter list: Signal must
// hand the array back to the next Wait rather than slice its head off.
func TestCallbackWakeZeroAllocs(t *testing.T) {
	e := New()
	c := e.NewCond()
	signal := func() { c.Signal() }
	tick := func() {}
	var waitAllocs, sleepAllocs float64
	e.Spawn("p", func(p *Proc) {
		waitAllocs = testing.AllocsPerRun(200, func() {
			e.At(p.Now()+3, signal)
			c.Wait(p)
		})
		sleepAllocs = testing.AllocsPerRun(200, func() {
			e.At(p.Now()+1, tick)
			p.Sleep(2)
		})
	})
	e.Run()
	if waitAllocs != 0 {
		t.Errorf("At + Cond.Wait + Signal allocated %.1f times per round, want 0", waitAllocs)
	}
	if sleepAllocs != 0 {
		t.Errorf("At + Sleep across it allocated %.1f times per round, want 0", sleepAllocs)
	}
	if st := e.Stats(); st.Handoffs != 1 {
		t.Errorf("Handoffs = %d, want 1: every round should have been dispatched by the waiter", st.Handoffs)
	}
}

// TestBroadcastKeepsFIFOAndCapacity: Broadcast releases waiters in the
// order they arrived and leaves the list empty but allocated.
func TestBroadcastKeepsFIFOAndCapacity(t *testing.T) {
	e := New()
	c := e.NewCond()
	var order []int
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			order = append(order, p.ID())
		})
	}
	e.At(1, c.Broadcast)
	e.Run()
	if want := []int{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Errorf("woken in order %v, want %v", order, want)
	}
	if c.Waiters() != 0 || cap(c.waiters) < 4 {
		t.Errorf("after Broadcast: %d waiters, capacity %d; want 0 and at least 4", c.Waiters(), cap(c.waiters))
	}
}
