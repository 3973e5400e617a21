package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// The tests below are about the root — the process Run resumed, which
// resumes the processes due before its own wake-up from inside its own
// wait. Where a test pins an ordering it runs in both modes (bothModes):
// all-parked there is no root, and the ordering must be the same.

// runLogged runs build against a fresh engine and returns what the
// processes logged through note, each entry tagged with the virtual time.
func runLogged(build func(e *Engine, note func(string)), opts ...Option) ([]string, Stats) {
	e := New(opts...)
	var log []string
	build(e, func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) })
	e.Run()
	return log, e.Stats()
}

// TestRootDispatchesPeer: two processes whose sleeps interleave, with a
// condition handed back and forth, observe the same (time, order) sequence
// whether the first resumes the second from inside its own waits or both
// park and Run resumes each — and by default the first one's waits cost no
// hand-off at all.
func TestRootDispatchesPeer(t *testing.T) {
	build := func(e *Engine, note func(string)) {
		c := e.NewCond()
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(3)
				note("a.slept")
				c.Wait(p)
				note("a.woke")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(2)
				note("b.slept")
				p.Sleep(2)
				c.Signal()
				note("b.signalled")
			}
		})
	}
	fast, fastStats := runLogged(build)
	parked, parkedStats := runLogged(build, DisableFastPath)
	if !slices.Equal(fast, parked) {
		t.Fatalf("orderings diverge\ndefault: %v\nparked:  %v", fast, parked)
	}
	// All-parked: two starts and one resume per wait, ten waits each. By
	// default a is resumed once, to start, and is never switched out again
	// before its body returns; b is started and then resumed nine times, all
	// from a's stack (its first sleep of all, with a's wake-up behind it in
	// the heap, is a fast advance), and returns before a does.
	if parkedStats.Handoffs != 22 {
		t.Errorf("all-parked Handoffs = %d, want 22", parkedStats.Handoffs)
	}
	if fastStats.Handoffs != 11 {
		t.Errorf("default Handoffs = %d, want 11: one resume for a, ten for b", fastStats.Handoffs)
	}
}

// TestPeerFinishesMidDispatch: a peer whose body returns while the root is
// dispatching is marked Done at that instant and the root carries on; when
// the root's own body returns, the next process Run picks becomes the root
// and resumes the one after it.
func TestPeerFinishesMidDispatch(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		var order []string
		var short *Proc
		e.Spawn("root", func(p *Proc) {
			p.Sleep(10)
			if short.State() != Done || short.EndTime() != 4 {
				t.Errorf("short is in state %v, ended at %v; want Done at 4", short.State(), short.EndTime())
			}
			order = append(order, "root")
		})
		short = e.Spawn("short", func(p *Proc) {
			p.Sleep(4)
			order = append(order, "short")
		})
		e.Spawn("heir", func(p *Proc) {
			p.Sleep(20) // outlives root: Run resumes it next, as the root
			order = append(order, "heir")
		})
		e.Spawn("last", func(p *Proc) {
			p.Sleep(15)
			order = append(order, "last")
		})
		e.Run()
		if want := []string{"short", "root", "last", "heir"}; !slices.Equal(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
		if e.noFast {
			return
		}
		// root: 1. short, heir, last: started by root, 3; short's wake-up
		// at 4 by root, 1. Root returns at 10 with "last" due at 15 and
		// "heir" at 20: Run resumes last (1), which ends; Run resumes heir
		// (1). Nobody is resumed twice for one wait.
		if got := e.Stats().Handoffs; got != 7 {
			t.Errorf("Handoffs = %d, want 7", got)
		}
	})
}

// TestPeerSpawnsMidDispatch: a process spawned by a peer the root resumed
// starts where its event falls in the heap, on the root's stack, and
// anything it spawns in turn likewise.
func TestPeerSpawnsMidDispatch(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		var order []string
		e.Spawn("root", func(p *Proc) {
			p.Sleep(10)
			order = append(order, "root")
		})
		e.Spawn("peer", func(p *Proc) {
			p.Sleep(2)
			e.SpawnAt("child", 5, func(c *Proc) {
				order = append(order, fmt.Sprintf("child@%d", c.StartTime()))
				e.Spawn("grandchild", func(g *Proc) {
					g.Sleep(1)
					order = append(order, fmt.Sprintf("grandchild@%d", g.Now()))
				})
				c.Sleep(20)
				order = append(order, "child-done")
			})
			p.Sleep(5)
			order = append(order, "peer")
		})
		e.Run()
		want := []string{"child@5", "grandchild@6", "peer", "root", "child-done"}
		if !slices.Equal(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
	})
}

// TestPeerSignalsRootsCond: the root waits on a condition; the peer it
// resumes signals it; the root takes its wake-up off the heap and returns
// without ever having been switched out.
func TestPeerSignalsRootsCond(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []Option
		handoffs int64
		fast     int64
	}{
		// The two starts, and the peer's last wake-up, from Run, once the
		// root has returned. The peer's first sleep, with the root off the
		// heap, is a fast advance; the root's wait is not, though it too
		// returned inline: it resumed somebody.
		{"default", nil, 3, 1},
		{"DisableFastPath", []Option{DisableFastPath}, 5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.opts...)
			c := e.NewCond()
			var woke, peerDone Time
			e.Spawn("root", func(p *Proc) {
				c.Wait(p)
				woke = p.Now()
			})
			e.Spawn("peer", func(p *Proc) {
				p.Sleep(6)
				c.Signal()
				p.Sleep(1) // the root is due first: at 6, ahead of 7
				peerDone = p.Now()
			})
			e.Run()
			if woke != 6 || peerDone != 7 {
				t.Errorf("root woke at %v, peer finished at %v; want 6 and 7", woke, peerDone)
			}
			st := e.Stats()
			if st.Handoffs != tc.handoffs {
				t.Errorf("Handoffs = %d, want %d", st.Handoffs, tc.handoffs)
			}
			if st.FastAdvances != tc.fast {
				t.Errorf("FastAdvances = %d, want %d", st.FastAdvances, tc.fast)
			}
		})
	}
}

// TestCallbackAndPeerSameInstant: callbacks and peers' wake-ups due at one
// instant, inside the root's sleep, run in the order they were scheduled —
// callback then peer and peer then callback — and before the root, which
// took its number for that instant last.
func TestCallbackAndPeerSameInstant(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		var order []string
		note := func(s string) func() { return func() { order = append(order, s) } }
		e.Spawn("root", func(p *Proc) {
			p.SleepUntil(15) // let the peers take their numbers for 20 first
			p.SleepUntil(20)
			note("root@20")()
		})
		e.Spawn("peer", func(p *Proc) {
			e.At(10, note("cb-before-peer"))
			p.SleepUntil(10)
			note("peer@10")()
			e.At(20, note("cb-after-peer2"))
			p.SleepUntil(20)
			note("peer@20")()
		})
		e.Spawn("peer2", func(p *Proc) {
			p.SleepUntil(20)
			note("peer2@20")()
		})
		e.At(20, note("cb-first@20"))
		e.Run()
		want := []string{
			"cb-before-peer", "peer@10",
			"cb-first@20", "peer2@20", "cb-after-peer2", "peer@20", "root@20",
		}
		if !slices.Equal(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
	})
}

// TestPeerDiesWhileRootWaits: a peer the root resumed panics, or calls
// runtime.Goexit, while the root waits in SleepUntil or in Cond.Wait. The
// panic value (or the Goexit) reaches Run's caller as it was thrown. It does
// not pass through the root: the root is unwound like any parked process —
// its deferred functions see only the engine's stop, and recovering that
// swallows nothing — cannot sleep or dispatch while dying, and no goroutine
// outlives Run.
func TestPeerDiesWhileRootWaits(t *testing.T) {
	boom := errors.New("boom")
	waits := []struct {
		name string
		make func(e *Engine) func(*Proc)
	}{
		{"SleepUntil", func(e *Engine) func(*Proc) {
			return func(p *Proc) { p.SleepUntil(100) }
		}},
		{"Cond.Wait", func(e *Engine) func(*Proc) {
			c := e.NewCond()
			return func(p *Proc) { c.Wait(p) }
		}},
	}
	deaths := []struct {
		name string
		die  func()
	}{
		{"panic", func() { panic(boom) }},
		{"Goexit", runtime.Goexit},
	}
	for _, w := range waits {
		for _, d := range deaths {
			t.Run(w.name+"/"+d.name, func(t *testing.T) {
				bothModes(t, func(t *testing.T, e *Engine) {
					before := runtime.NumGoroutine()
					wait := w.make(e)
					var rootSaw any
					rootUnwound, bystanderUnwound, peerUnwound := false, false, false
					e.Spawn("root", func(p *Proc) {
						defer func() {
							rootSaw = recover() // and carry on: the body returns normally
							rootUnwound = true
							p.Sleep(1) // a dying body cannot
						}()
						wait(p)
						t.Error("the root's wait returned")
					})
					e.Spawn("peer", func(p *Proc) {
						defer func() { peerUnwound = true }()
						p.Sleep(5)
						d.die()
					})
					e.Spawn("bystander", func(p *Proc) {
						defer func() { bystanderUnwound = true }()
						p.Sleep(50)
						t.Error("a process ran after the peer died")
					})
					e.At(6, func() { t.Error("a callback ran after the peer died") })

					// Run on a goroutine of its own, so Goexit has one to end.
					type outcome struct {
						returned bool
						panicked any
					}
					done := make(chan outcome)
					go func() {
						var o outcome
						defer func() {
							o.panicked = recover()
							done <- o
						}()
						e.Run()
						o.returned = true
					}()
					o := <-done
					if o.returned {
						t.Error("Run returned normally")
					}
					if d.name == "panic" && o.panicked != boom {
						t.Errorf("Run panicked with %v, want the peer's value", o.panicked)
					}
					if d.name == "Goexit" && o.panicked != nil {
						t.Errorf("Run panicked with %v, want Goexit", o.panicked)
					}
					if !rootUnwound || !peerUnwound || !bystanderUnwound {
						t.Errorf("unwound: root %v, peer %v, bystander %v; want all", rootUnwound, peerUnwound, bystanderUnwound)
					}
					if rootSaw != any(killedError{}) {
						t.Errorf("the root's deferred function recovered %v, want only the engine's stop", rootSaw)
					}
					if e.Now() != 5 {
						t.Errorf("ended at %v, want 5", e.Now())
					}
					// Run's goroutine has sent its outcome but may not
					// have left the count yet.
					if after := leakcheck.Settle(before, 5*time.Second); after > before {
						t.Errorf("%d goroutines before Run, %d after", before, after)
					}
				})
			})
		}
	}
}

// TestRootDeadlockedOnCond: the root waits on a condition nobody will
// signal. It resumes its peers until nothing is scheduled, then parks, and
// Run reports the deadlock naming exactly the processes still alive.
func TestRootDeadlockedOnCond(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		never := e.NewCond()
		finished := false
		e.Spawn("root", func(p *Proc) { never.Wait(p) })
		e.Spawn("finisher", func(p *Proc) {
			p.Sleep(3)
			finished = true
		})
		e.Spawn("stuck-too", func(p *Proc) {
			p.Sleep(1)
			never.Wait(p)
		})
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "2 live") ||
				!strings.Contains(msg, "[root stuck-too]") {
				t.Errorf("Run panicked with %q, want a deadlock report naming root and stuck-too", msg)
			}
			if !finished || e.Now() != 3 {
				t.Errorf("finisher done: %v, clock %v; want true at 3", finished, e.Now())
			}
		}()
		e.Run()
	})
}

// TestPingPongSwitchesPerRound pins what a hand-off costs: two processes
// handing a token back and forth make one resume per round by default — the
// root's half of each round is a return, not a switch — and two all-parked;
// and a round allocates nothing either way.
func TestPingPongSwitchesPerRound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []Option
		perRound int64
	}{
		{"default", nil, 1},
		{"DisableFastPath", []Option{DisableFastPath}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 300
			e := New(tc.opts...)
			var allocs float64
			pingPong(e, rounds, func(round func()) {
				allocs = testing.AllocsPerRun(rounds-1, round) // plus its warm-up call
			})
			e.Run()
			if got, want := e.Stats().Handoffs, 2+tc.perRound*rounds; got != want {
				t.Errorf("Handoffs = %d over %d rounds, want %d", got, rounds, want)
			}
			if allocs != 0 {
				t.Errorf("a round allocated %.1f times, want 0", allocs)
			}
		})
	}
}

// pingPong spawns two processes that hand a token back and forth: pong
// waits for it and sends it back, ping sends it and waits, rounds times,
// with repeat making ping's calls.
func pingPong(e *Engine, rounds int, repeat func(round func())) {
	toPing, toPong := e.NewCond(), e.NewCond()
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			toPong.Wait(p)
			toPing.Signal()
		}
	})
	e.Spawn("ping", func(p *Proc) {
		repeat(func() {
			toPong.Signal()
			toPing.Wait(p)
		})
	})
}
