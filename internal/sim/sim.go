// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock and runs simulated processes, each of
// which is an ordinary Go function executing as a coroutine of the goroutine
// that called Run (iter.Pull). Exactly one of them — or the engine — runs at
// any instant; a process runs until it blocks on the virtual clock (Sleep,
// SleepUntil) or on a condition (Cond.Wait), at which point it switches
// straight back to the engine, which switches to whichever process the
// event heap says is next. A switch is a direct transfer of control: no
// channel, no trip through the Go scheduler, no second thread woken. Events
// that fire at the same virtual time run in the order they were scheduled.
// Given the same inputs, a simulation therefore produces exactly the same
// interleaving and the same results on every run.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Time is a point in virtual time, measured in microseconds from the start
// of the simulation.
type Time int64

// Convenient durations expressed in Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// FromSeconds converts floating-point seconds to Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// FromMillis converts floating-point milliseconds to Time.
func FromMillis(ms float64) Time { return Time(ms*float64(Millisecond) + 0.5) }

// event is a scheduled wake-up for a process.
type event struct {
	at   Time
	seq  uint64 // tie-break: schedule order
	proc *Proc
}

// before reports whether a fires strictly before b: earlier virtual time,
// schedule order breaking ties.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by event.before. It is
// typed end to end — unlike container/heap there is no interface boxing,
// so push/pop allocate nothing in steady state (pushes reuse the slice's
// capacity once it has grown to the simulation's high-water mark). The
// engine's event loop runs one push and one pop per process wake-up,
// which makes this the hottest data structure in the simulator.
type eventHeap []event

// push adds ev, sifting it up to its heap position.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest event. It panics on an empty heap.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the *Proc so the slice does not retain it
	s = s[:n]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		least := i
		if l < n && s[l].before(s[least]) {
			least = l
		}
		if rt < n && s[rt].before(s[least]) {
			least = rt
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

// Engine is a discrete-event simulation. The zero value is not usable; call
// New.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	procs   []*Proc
	current *Proc // the process executing right now (nil between steps)
	started bool
	noFast  bool // DisableFastPath: every sleep parks, through the event heap
	nLive   int  // live non-daemon processes
	stats   Stats
}

// Stats counts engine activity over a run. The interesting ratio is
// FastAdvances to Handoffs: every fast advance is a wake-up that moved
// virtual time inline instead of paying a heap push plus two coroutine
// switches.
type Stats struct {
	// EventsScheduled is the number of heap pushes (spawns, parked
	// sleeps, condition signals).
	EventsScheduled int64 `json:"events_scheduled"`
	// Handoffs is the number of engine<->process round trips (one resume
	// plus one yield each).
	Handoffs int64 `json:"handoffs"`
	// FastAdvances is the number of SleepUntil/Sleep/Yield calls that
	// advanced the clock inline via the lookahead fast path.
	FastAdvances int64 `json:"fast_advances"`
	// HeapHighWater is the deepest the event heap ever got.
	HeapHighWater int `json:"heap_high_water"`
}

// Accumulate folds o into s: counters add, high-water marks take the max.
// Used to aggregate the engines of many independent runs.
func (s *Stats) Accumulate(o Stats) {
	s.EventsScheduled += o.EventsScheduled
	s.Handoffs += o.Handoffs
	s.FastAdvances += o.FastAdvances
	if o.HeapHighWater > s.HeapHighWater {
		s.HeapHighWater = o.HeapHighWater
	}
}

// Option configures an Engine at construction.
type Option func(*Engine)

// DisableFastPath forces every sleep through the event heap and a switch
// to the engine and back, disabling the lookahead fast path. The two modes
// are observationally equivalent (the fast path fires only when it is
// provably so); this option exists so differential tests can prove it.
var DisableFastPath Option = func(e *Engine) { e.noFast = true }

// New returns a fresh simulation engine with the clock at zero.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// ProcState describes the lifecycle of a simulated process.
type ProcState int

const (
	// Created means Spawn has been called but the body has not started.
	Created ProcState = iota
	// Running means the body has started and not yet returned.
	Running
	// Done means the body returned.
	Done
)

// Proc is a simulated process. Its body function runs as a coroutine the
// engine creates on the first resume; all blocking is via the methods on
// Proc, which cooperate with the engine.
type Proc struct {
	eng  *Engine
	id   int
	name string
	body func(*Proc)
	// The three ends of the coroutine (iter.Pull), nil until the first
	// resume. The engine calls next to run the body up to its next park
	// (false once the body has returned; a body panic or Goexit comes out
	// of next itself) and stop to unwind a parked body; the body calls
	// yield to park, and a false return means it is being stopped.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	state   ProcState
	daemon  bool
	start   Time // virtual time the body begins
	begun   Time // virtual time the body actually began
	end     Time // virtual time the body returned
	waiting bool // parked on an external condition, not the clock
}

// ID returns the process identifier, assigned in spawn order starting at 0.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// State returns the process lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Now returns the current virtual time. Only valid while p is running.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// StartTime returns the virtual time at which the body began executing.
func (p *Proc) StartTime() Time { return p.begun }

// EndTime returns the virtual time at which the body returned. It is only
// meaningful once State is Done.
func (p *Proc) EndTime() Time { return p.end }

// Elapsed returns the virtual time the process body took from its start to
// its completion. It is only meaningful once State is Done.
func (p *Proc) Elapsed() Time { return p.end - p.begun }

// Spawn registers a new process whose body starts at the current virtual
// time (or at engine start, if the engine is not running yet).
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	return e.SpawnAt(name, e.now, body)
}

// SpawnAt registers a new process whose body starts at virtual time at.
// Spawning in the past is an error and panics.
func (e *Engine) SpawnAt(name string, at Time, body func(*Proc)) *Proc {
	p := e.spawn(name, at, body, false)
	return p
}

// SpawnDaemon registers a background process that does not keep the
// simulation alive: Run returns once every non-daemon process has finished,
// abandoning daemons wherever they are parked. Daemons are for periodic
// housekeeping such as a sync/update daemon.
func (e *Engine) SpawnDaemon(name string, body func(*Proc)) *Proc {
	return e.spawn(name, e.now, body, true)
}

func (e *Engine) spawn(name string, at Time, body func(*Proc), daemon bool) *Proc {
	if at < e.now {
		panic(fmt.Sprintf("sim: SpawnAt(%v) in the past (now %v)", at, e.now))
	}
	p := &Proc{
		eng:    e,
		id:     len(e.procs),
		name:   name,
		body:   body,
		start:  at,
		daemon: daemon,
	}
	e.procs = append(e.procs, p)
	if !daemon {
		e.nLive++
	}
	e.schedule(at, p)
	return p
}

func (e *Engine) schedule(at Time, p *Proc) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p})
	e.stats.EventsScheduled++
	if n := len(e.events); n > e.stats.HeapHighWater {
		e.stats.HeapHighWater = n
	}
}

// killedError is the sentinel panic value that unwinds a parked process
// body when the engine stops it.
type killedError struct{}

func (killedError) Error() string { return "sim: process stopped at shutdown" }

// Run executes the simulation until every non-daemon process has finished
// (or no scheduled events remain). It panics if a process body panicked,
// propagating the original panic value, or if the simulation deadlocks
// (live processes remain but none is scheduled — e.g. a process parked on a
// condition nobody will signal); a runtime.Goexit in a body (t.FailNow)
// likewise ends Run's caller. On every one of those paths each process
// still parked — daemons on the clean path, everything unfinished on the
// others — is unwound first, so its deferred functions run and no goroutine
// outlives Run.
func (e *Engine) Run() {
	if e.started {
		panic("sim: Engine.Run called twice")
	}
	e.started = true
	defer e.unwind()
	for e.nLive > 0 && len(e.events) > 0 {
		ev := e.events.pop()
		p := ev.proc
		if p.state == Done {
			continue // stale wake-up
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.step(p)
	}
	if e.nLive > 0 {
		names := e.liveNames()
		panic(fmt.Sprintf("sim: deadlock — %d live process(es) but no pending events: %v", e.nLive, names))
	}
}

// unwind stops every started, unfinished process, in spawn order. The
// stops are deferred so that each runs even if an earlier body's deferred
// function panics; the last such panic is the one Run's caller sees.
func (e *Engine) unwind() {
	e.current = nil // a dying body that sleeps must park, and so keep dying
	for i := len(e.procs) - 1; i >= 0; i-- {
		if p := e.procs[i]; p.state == Running {
			p.state = Done
			p.end = e.now
			defer p.kill()
		}
	}
}

// kill unwinds p's parked body: stop makes the pending yield return false,
// park panics with killedError, the body's deferred functions run, and the
// sentinel comes back out of stop. Any other panic value is the body's own.
func (p *Proc) kill() {
	defer func() {
		if r := recover(); r != nil && r != any(killedError{}) {
			panic(r)
		}
	}()
	p.stop()
}

func (e *Engine) liveNames() []string {
	var names []string
	for _, p := range e.procs {
		if p.state != Done {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// step switches to process p — creating its coroutine the first time — and
// returns when p parks or its body returns. While p runs it is e.current,
// which is what entitles it to the SleepUntil fast path.
func (e *Engine) step(p *Proc) {
	if p.state == Created {
		p.state = Running
		p.begun = e.now
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			p.body(p)
		})
	}
	e.current = p
	e.stats.Handoffs++
	_, parked := p.next()
	e.current = nil
	if !parked {
		p.state = Done
		p.end = e.now
		if !p.daemon {
			e.nLive--
		}
	}
}

// park switches from the calling process body back to the engine and
// returns when the engine next resumes it. Must be called from within the
// process's own body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killedError{})
	}
}

// SleepUntil blocks the process until virtual time t. Sleeping until a time
// in the past (or the present) returns immediately but still yields to the
// engine, preserving event ordering.
//
// Lookahead fast path: when the caller is the currently-executing process
// and the event heap is empty or its earliest event fires strictly after
// t, no other process can possibly run before the caller's wake-up at t —
// the slow path would push an event, hand off to the engine, and have the
// engine pop that same event right back. In that provably-equivalent case
// the clock advances inline: no heap traffic and no switch. A top event at
// exactly t must still park:
// it was scheduled earlier, so sequence numbers order it before the
// caller at that instant.
func (p *Proc) SleepUntil(t Time) {
	e := p.eng
	if t < e.now {
		t = e.now
	}
	if e.current == p && !e.noFast &&
		(len(e.events) == 0 || t < e.events[0].at) {
		e.now = t
		e.stats.FastAdvances++
		return
	}
	e.schedule(t, p)
	p.park()
}

// Sleep blocks the process for duration d of virtual time. Negative
// durations sleep zero time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.eng.now + d)
}

// Yield gives other processes scheduled for the current instant a chance to
// run, then continues. When no same-instant event exists the SleepUntil
// fast path makes this free: no heap traffic and no handoff.
func (p *Proc) Yield() { p.SleepUntil(p.eng.now) }

// Cond is a waitable condition inside the simulation: processes block on it
// with Wait and are released, in FIFO order, by Signal or Broadcast issued
// from another process.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition tied to the engine.
func (e *Engine) NewCond() *Cond { return &Cond{eng: e} }

// Wait parks the calling process until another process signals the
// condition.
func (c *Cond) Wait(p *Proc) {
	p.waiting = true
	c.waiters = append(c.waiters, p)
	p.park()
}

// Signal wakes the longest-waiting process, scheduling it at the current
// virtual time. It reports whether a process was woken.
func (c *Cond) Signal() bool {
	if len(c.waiters) == 0 {
		return false
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	w.waiting = false
	c.eng.schedule(c.eng.now, w)
	return true
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for c.Signal() {
	}
}

// Waiters reports how many processes are parked on the condition.
func (c *Cond) Waiters() int { return len(c.waiters) }
