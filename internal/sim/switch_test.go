package sim

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestStatsTwoProcInterleave pins the engine's counters on the
// BenchmarkTwoProcInterleave shape: two processes whose every sleep lands
// on the other's pending wake-up. The counts were taken from the channel
// hand-off engine before the coroutine switch replaced it; a changed
// count means which process runs when has changed. Handoffs was 2002 while
// every wait went through Run: now the first process is the root and resumes
// the second from inside each of its own sleeps, which cost no hand-off.
func TestStatsTwoProcInterleave(t *testing.T) {
	e := New()
	for pi := 0; pi < 2; pi++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				p.Sleep(1)
			}
		})
	}
	e.Run()
	want := Stats{EventsScheduled: 2002, Handoffs: 1002, FastAdvances: 0, HeapHighWater: 2}
	if got := e.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if e.Now() != 1000 {
		t.Errorf("ended at %d, want 1000", e.Now())
	}
}

// TestSpawnMidRunOrder: a process spawned by a running process at the
// current instant queues behind every wake-up already scheduled for that
// instant, and starts at that instant.
func TestSpawnMidRunOrder(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Second)
		e.Spawn("child", func(c *Proc) {
			if c.StartTime() != Second {
				t.Errorf("child began at %v, want 1s", c.StartTime())
			}
			order = append(order, "child")
			c.Sleep(Second)
			order = append(order, "child-done")
		})
		order = append(order, "parent")
		p.Yield()
		order = append(order, "parent-resumed")
	})
	e.Spawn("peer", func(p *Proc) {
		p.Sleep(Second)
		order = append(order, "peer")
	})
	e.Run()
	want := []string{"parent", "peer", "child", "parent-resumed", "child-done"}
	if !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestTwoEnginesConcurrently runs independent engines on several
// goroutines at once, as expt.Runner does at -parallel 2; under -race it
// checks that a switch shares nothing across engines.
func TestTwoEnginesConcurrently(t *testing.T) {
	run := func() (Time, Stats) {
		e := New()
		c := e.NewCond()
		every(e, 3, func() { c.Signal() })
		for pi := 0; pi < 3; pi++ {
			e.Spawn("p", func(p *Proc) {
				for i := 0; i < 500; i++ {
					p.Sleep(Time(1 + i%3))
					if i%50 == 0 {
						c.Wait(p)
					}
				}
			})
		}
		e.Run()
		return e.Now(), e.Stats()
	}
	wantNow, wantStats := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if now, stats := run(); now != wantNow || stats != wantStats {
					t.Errorf("concurrent run ended at %v with %+v, alone at %v with %+v", now, stats, wantNow, wantStats)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunLeavesNoGoroutine: whichever way Run ends — cleanly with
// callbacks still scheduled, by the deadlock panic, by a body's panic —
// every process still parked is unwound (its deferred functions run), no
// callback still scheduled runs, and no goroutine is left behind; and a
// body's panic value reaches Run's caller as it was thrown.
func TestRunLeavesNoGoroutine(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name      string
		build     func(e *Engine, unwound *int)
		parked    int // processes parked when Run ends
		wantPanic func(r any) bool
	}{
		{
			name: "callbacks pending at a clean exit",
			build: func(e *Engine, unwound *int) {
				every(e, Second, func() {
					if e.Now() > 5*Second {
						t.Errorf("a callback ran at %v, after the last process returned", e.Now())
					}
				})
				// Scheduled once work is asleep, for the instant it wakes:
				// ordered behind the last wake-up, so never run.
				e.At(Second, func() {
					e.At(5*Second, func() { t.Error("a callback ordered behind the last wake-up ran") })
				})
				e.Spawn("work", func(p *Proc) { p.Sleep(5 * Second) })
			},
			parked:    0,
			wantPanic: func(r any) bool { return r == nil },
		},
		{
			name: "deadlock",
			build: func(e *Engine, unwound *int) {
				c := e.NewCond()
				for i := 0; i < 3; i++ {
					e.Spawn("stuck", func(p *Proc) {
						defer func() { *unwound++ }()
						c.Wait(p)
					})
				}
			},
			parked: 3,
			wantPanic: func(r any) bool {
				_, isString := r.(string) // the deadlock report
				return isString
			},
		},
		{
			name: "body panic",
			build: func(e *Engine, unwound *int) {
				c := e.NewCond()
				e.Spawn("ticker", func(p *Proc) {
					defer func() { *unwound++ }()
					for {
						p.Sleep(Second)
					}
				})
				every(e, 2*Second, func() {
					if e.Now() > 3*Second {
						t.Errorf("a callback ran at %v, after the panic", e.Now())
					}
				})
				e.Spawn("waiter", func(p *Proc) {
					defer func() { *unwound++ }()
					c.Wait(p)
				})
				e.Spawn("sleeper", func(p *Proc) {
					defer func() { *unwound++ }()
					p.Sleep(100 * Second)
				})
				e.Spawn("boom", func(p *Proc) {
					p.Sleep(3 * Second)
					panic(boom)
				})
				e.SpawnAt("late", 9*Second, func(p *Proc) {
					t.Error("a process started after the panic")
				})
			},
			parked:    3,
			wantPanic: func(r any) bool { return r == boom },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New()
			unwound := 0
			tc.build(e, &unwound)
			func() {
				defer func() {
					if r := recover(); !tc.wantPanic(r) {
						t.Errorf("Run panicked with %v", r)
					}
				}()
				e.Run()
			}()
			if unwound != tc.parked {
				t.Errorf("%d parked processes ran their deferred functions, want %d", unwound, tc.parked)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("%d goroutines before Run, %d after", before, after)
			}
			for _, p := range e.procs {
				if p.State() == Running {
					t.Errorf("process %s still Running after Run", p.Name())
				}
			}
		})
	}
}

// TestGoexitInBodyEndsCaller: runtime.Goexit in a process body — which is
// what t.FailNow does — ends the goroutine that called Run, after the
// other processes are unwound, instead of leaving Run waiting for a
// process that will never report back.
func TestGoexitInBodyEndsCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	unwound := false
	e.Spawn("ticker", func(p *Proc) {
		defer func() { unwound = true }()
		for {
			p.Sleep(Second)
		}
	})
	e.Spawn("failing", func(p *Proc) {
		p.Sleep(2 * Second)
		runtime.Goexit()
	})
	returned := make(chan bool)
	go func() {
		ret := false
		defer func() { returned <- ret }()
		e.Run()
		ret = true
	}()
	if <-returned {
		t.Error("Run returned normally after a body called Goexit")
	}
	if !unwound {
		t.Error("the parked process was not unwound")
	}
	// The caller's goroutine is past its last deferred function but may
	// not have left the count yet.
	if after := leakcheck.Settle(before, 5*time.Second); after > before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
}

// TestDyingBodyCannotSleep: a deferred function that sleeps while its
// body is being unwound does not advance the clock, dispatch or park; it
// keeps unwinding.
func TestDyingBodyCannotSleep(t *testing.T) {
	e := New()
	reached := false
	never := e.NewCond()
	e.Spawn("d", func(p *Proc) {
		defer func() {
			defer func() { reached = true }()
			p.Sleep(Second)
			t.Error("a sleep in a dying body returned")
		}()
		never.Wait(p)
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(2500 * Millisecond)
		panic("w")
	})
	e.At(3*Second, func() { t.Error("a dying body dispatched a callback") })
	func() {
		defer func() {
			if r := recover(); r != "w" {
				t.Errorf("Run panicked with %v, want w's panic", r)
			}
		}()
		e.Run()
	}()
	if !reached {
		t.Error("d's deferred function did not run to its own defer")
	}
	if e.Now() != 2500*Millisecond {
		t.Errorf("ended at %v, want 2.5s", e.Now())
	}
}
