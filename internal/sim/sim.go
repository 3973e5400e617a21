// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock through a heap of events of two kinds.
// A process wake-up resumes a simulated process: an ordinary Go function
// executing as a coroutine (iter.Pull), which runs until it blocks on the
// virtual clock (Sleep, SleepUntil) or on a condition (Cond.Wait). A
// callback (At) is an event without a process: a function that does not
// block, run inline by whoever is dispatching. That is how passive machinery
// — a disk working through its queue, a periodic flush — takes part in the
// simulation without a process of its own.
//
// Exactly one process — or the engine — runs at any instant, and whoever
// runs dispatches. Run pops the first event and resumes its process; that
// process is the root. A process that blocks does not hand control back
// unless it has to. Any running process runs the callbacks that are due
// before its own wake-up on its own stack, and returns without a switch if
// it is then the next thing due. The root goes further: it also resumes the
// processes due before it, from its own stack, each of which runs until it
// has to park and then switches straight back to the root; when the root's
// own wake-up reaches the top of the heap it simply returns. A process that
// is not the root parks when another process is due first. So a hand-off
// between two processes is one switch in and one switch out, the root's own
// waits cost none, and Run's loop turns only when the root's body returns. A
// switch is a direct transfer of control: no channel, no trip through the
// Go scheduler, no second thread woken. All three dispatchers — Run, the
// root, a waiting peer — take events off the one heap with the one routine
// (Engine.dispatch), so events that fire at the same virtual time run in
// the order they were scheduled, whoever dispatches them. Given the same
// inputs, a simulation therefore produces exactly the same interleaving and
// the same results on every run.
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

// event is a scheduled wake-up for a process or, when fn is set, a callback.
type event struct {
	at   Time
	seq  uint64 // tie-break: schedule order
	proc *Proc
	fn   func()
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
// capacity once it has grown to the simulation's high-water mark). Every
// callback and every wake-up that is not a fast advance costs one push and
// one pop, which makes this the hottest data structure in the simulator.
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
	s[n] = event{} // release the *Proc or closure so the slice does not retain it
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
	current *Proc // the process executing right now (nil while Run dispatches)
	root    *Proc // the process Run resumed itself; only meaningful while current != nil
	dying   *Proc // the process whose body panicked or called Goexit, suspended until unwind
	started bool
	noFast  bool // DisableFastPath: every wait parks; only Run dispatches
	nLive   int  // processes whose body has not returned
	stats   Stats
}

// Stats counts engine activity over a run. A wait ends in one of three
// ways: the waiter is resumed (a hand-off), it returns with nothing having
// been switched at all (a fast advance), or — the root only — it returns
// after resuming the processes due before it, which paid for their own
// hand-offs. With DisableFastPath every wait ends the first way.
type Stats struct {
	// EventsScheduled is the number of heap pushes (spawns, sleeps that
	// found a process due first, condition signals, callbacks).
	EventsScheduled int64 `json:"events_scheduled"`
	// Handoffs is the number of times a process was resumed — by Run or
	// by the root — and so the number of round trips: one switch in, one
	// back out when it parks or returns. The root's own waits cost none,
	// and neither do callbacks: they run on the stack of whoever is
	// dispatching.
	Handoffs int64 `json:"handoffs"`
	// FastAdvances is the number of SleepUntil/Sleep/Yield/Cond.Wait
	// calls that returned with no switch made on their behalf: the
	// caller was the next thing due once the callbacks ahead of it had
	// run. A wait in which the root resumed another process is not one.
	FastAdvances int64 `json:"fast_advances"`
	// HeapHighWater is the deepest the event heap ever got.
	HeapHighWater int `json:"heap_high_water"`
}

// Option configures an Engine at construction.
type Option func(*Engine)

// DisableFastPath forces every sleep and every Cond.Wait through the event
// heap and a switch to the engine and back, and leaves every callback and
// every wake-up to Run's loop: no lookahead, no dispatch by a waiting
// process, no root. The two modes are observationally equivalent (a waiting
// process dispatches exactly what the engine would have, in the same
// order); this option exists so differential tests can prove it.
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

// Proc is a simulated process. Its body function runs as a coroutine
// created on the first resume; all blocking is via the methods on Proc (and
// Cond.Wait, Resource.Use), which cooperate with the engine. A blocked
// process is not necessarily a parked one: while it is running it
// dispatches the callbacks due ahead of it itself; the root — the process
// Run resumed — also resumes the processes due ahead of it, and is switched
// out only when its body returns; any other process switches back to
// whoever resumed it (the root, or Run) to let another process run.
type Proc struct {
	eng  *Engine
	id   int
	name string
	body func(*Proc)
	// The three ends of the coroutine (iter.Pull), nil until the first
	// resume. Whoever dispatches calls next to run the body up to its next
	// park (false once the body has returned) and unwind calls stop to
	// unwind a parked body (a body's panic or Goexit comes out of that
	// stop, see start); the body calls yield to park, and a false return
	// means it is being stopped.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	state ProcState
	begun Time // virtual time the body actually began
	end   Time // virtual time the body returned
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
	if at < e.now {
		panic(fmt.Sprintf("sim: SpawnAt(%v) in the past (now %v)", at, e.now))
	}
	p := &Proc{
		eng:  e,
		id:   len(e.procs),
		name: name,
		body: body,
	}
	e.procs = append(e.procs, p)
	e.nLive++
	e.push(event{at: at, seq: e.nextSeq(), proc: p})
	return p
}

// At schedules fn to run at virtual time t (now, if t is in the past). fn is
// an event without a process: it runs inline on the stack of whoever is
// dispatching — Run's loop, or a process waiting in SleepUntil or Cond.Wait
// — ordered against process wake-ups by (time, schedule order) like any
// other event. It must not block (no Sleep, no Cond.Wait, no Resource.Use);
// it may do everything else: signal conditions, reserve resources, spawn
// processes, schedule further callbacks, itself included. Pending callbacks
// do not keep the simulation alive: Run returns when the last process has,
// and whatever is still scheduled never runs. That makes a self-rearming
// callback the way to write periodic background work such as a sync daemon.
//
// At itself allocates nothing; pass a func value built once rather than a
// fresh closure to keep a hot path allocation-free.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(event{at: t, seq: e.nextSeq(), fn: fn})
}

// nextSeq hands out schedule-order tie-breaks. A number can be taken before
// it is known whether its event will ever be pushed (SleepUntil): what
// orders events is the relative order in which numbers were taken.
func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

func (e *Engine) push(ev event) {
	e.events.push(ev)
	e.stats.EventsScheduled++
	if n := len(e.events); n > e.stats.HeapHighWater {
		e.stats.HeapHighWater = n
	}
}

// wake schedules p's wake-up for the current instant.
func (e *Engine) wake(p *Proc) {
	e.push(event{at: e.now, seq: e.nextSeq(), proc: p})
}

// dispatch pops the heap's top event and acts on it at its time: a callback
// is called, a process is resumed until it parks or returns, a wake-up for a
// process that has since finished is dropped. It is the one way an event
// leaves the heap other than a waiter taking its own, and runs on the stack
// of whoever is dispatching: Run, the root, or (callbacks only) any process
// waiting.
//
// While a resumed process runs it is e.current, which is what entitles it
// to dispatch callbacks for itself in SleepUntil and Cond.Wait; resumed by
// Run it is also e.root, which entitles it to resume other processes. No
// panic comes out of next (see start), so e.current is restored without a
// defer.
func (e *Engine) dispatch() {
	ev := e.events.pop()
	if ev.fn == nil && ev.proc.state == Done {
		return // stale wake-up
	}
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	if ev.fn != nil {
		ev.fn()
		return
	}
	p := ev.proc
	if p.state == Created {
		e.start(p)
	}
	by := e.current
	if by == nil {
		e.root = p
	}
	e.current = p
	e.stats.Handoffs++
	_, parked := p.next()
	e.current = by
	if !parked {
		p.state = Done
		p.end = e.now
		e.nLive--
	}
}

// killedError is the sentinel panic value that unwinds a parked process
// body when the engine stops it.
type killedError struct{}

func (killedError) Error() string { return "sim: process stopped at shutdown" }

// Run executes the simulation until every process has finished; callbacks
// still scheduled then are dropped. It panics if a process body or a
// callback panicked, propagating the original panic value, or if the
// simulation deadlocks (live processes remain but nothing is scheduled —
// e.g. a process parked on a condition nobody will signal); a
// runtime.Goexit in a body (t.FailNow) likewise ends Run's caller. On those
// paths every process still parked is unwound first, so its deferred
// functions run and no goroutine outlives Run.
func (e *Engine) Run() {
	if e.started {
		panic("sim: Engine.Run called twice")
	}
	e.started = true
	defer e.unwind()
	for e.nLive > 0 && len(e.events) > 0 && e.dying == nil {
		e.dispatch()
	}
	if e.nLive > 0 && e.dying == nil {
		names := e.liveNames()
		panic(fmt.Sprintf("sim: deadlock — %d live process(es) but no pending events: %v", e.nLive, names))
	}
}

// unwind stops every started, unfinished process: first the one whose body
// panicked or called Goexit, if any — its stop finishes that panic or Goexit
// and delivers it here, on Run's stack — then the parked ones in spawn
// order. The stops are deferred so that each runs even if an earlier one
// panics; the last such panic is the one Run's caller sees.
func (e *Engine) unwind() {
	e.current = nil // a dying body that waits must park, and so keep dying
	for i := len(e.procs) - 1; i >= 0; i-- {
		if p := e.procs[i]; p.state == Running && p != e.dying {
			p.state = Done
			p.end = e.now
			defer p.kill()
		}
	}
	if p := e.dying; p != nil {
		p.state = Done
		p.end = e.now
		defer p.kill()
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

// start creates p's coroutine; the first next runs the body from the top.
//
// A body that panics or calls runtime.Goexit must end Run's caller, not
// whoever happened to resume it: out of next, the panic would unwind the
// root's frames as though the root had thrown it, for the root's deferred
// functions to observe and recover. So the coroutine's outermost deferred
// function, reached once the body's own have run, marks the process as
// e.dying and parks it one last time, still panicking. That stops all
// dispatching — the root parks, Run's loop ends — and unwind's stop lets the
// panic or Goexit finish and come out on Run's stack with its value intact.
func (e *Engine) start(p *Proc) {
	p.state = Running
	p.begun = e.now
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		returned := false
		defer func() {
			// state is Done already when unwind is stopping the body.
			if !returned && p.state == Running {
				e.dying = p
				yield(struct{}{})
			}
		}()
		p.body(p)
		returned = true
	})
}

// park switches from the calling process body back to whoever resumed it —
// Run or the root — and returns when it is next resumed. Must be called from
// within the process's own body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killedError{})
	}
}

// SleepUntil blocks the process until virtual time t. Sleeping until a time
// in the past (or the present) returns immediately but still lets every
// event already scheduled for that instant go first, preserving event
// ordering.
//
// The caller takes its wake-up's schedule-order number up front and then
// dispatches for itself. While the heap's top is a callback ordered before
// the caller's (t, number), the caller pops it and runs it on its own stack
// — exactly what the engine would do next had the caller parked. When
// nothing in the heap is ordered before (t, number) the caller is itself
// the next event: the clock advances to t and the call returns, with no
// heap traffic and no switch. A top event at exactly t was scheduled
// earlier, so it still goes first; a callback that schedules something at
// exactly t took a later number, so it goes after, as it would have with
// the caller's event sitting in the heap. Only when another process's
// wake-up is ordered first does the caller push its event — a process
// resumed meanwhile must find it in the heap to order itself against — and
// wait for it to come up: dispatching, if it is the root; parked, if not.
func (p *Proc) SleepUntil(t Time) {
	e := p.eng
	if t < e.now {
		t = e.now
	}
	me := event{at: t, seq: e.nextSeq(), proc: p}
	if e.current != p || e.noFast {
		e.push(me)
		p.park()
		return
	}
	for {
		if len(e.events) == 0 || me.before(e.events[0]) {
			e.now = t
			e.stats.FastAdvances++
			return
		}
		if e.events[0].fn == nil {
			break
		}
		e.dispatch()
	}
	e.push(me)
	if !p.dispatchUntilDue() {
		p.park()
	}
}

// dispatchUntilDue is how a running process waits for its wake-up — in the
// heap already, or pushed by whoever signals the condition p has joined. It
// dispatches for itself: callbacks at the top of the heap run on its stack,
// and when its own wake-up reaches the top it takes it and returns true. The
// root also resumes the processes whose wake-ups come first, one switch in
// and one back out each, and so never gives up while anything is scheduled;
// any other process stops as soon as a process's wake-up reaches the top.
// False means p has to park: a process is due first and p is not the root,
// nothing is scheduled (which Run will report as a deadlock), or a resumed
// body is dying (which ends the run).
func (p *Proc) dispatchUntilDue() bool {
	e := p.eng
	switched := e.stats.Handoffs
	for len(e.events) > 0 && e.dying == nil {
		top := &e.events[0]
		if top.proc == p {
			// A process has one wake-up pending at most.
			e.now = e.events.pop().at
			if e.stats.Handoffs == switched {
				e.stats.FastAdvances++
			}
			return true
		}
		if top.fn == nil && p != e.root {
			break
		}
		e.dispatch()
	}
	return false
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
// run, then continues. When none of them is a process SleepUntil makes this
// free: no heap traffic and no handoff.
func (p *Proc) Yield() { p.SleepUntil(p.eng.now) }

// Cond is a waitable condition inside the simulation: processes block on it
// with Wait and are released, in FIFO order, by Signal or Broadcast issued
// from another process or from a callback.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition tied to the engine.
func (e *Engine) NewCond() *Cond { return &Cond{eng: e} }

// Wait blocks the calling process until the condition is signalled. Like
// SleepUntil it dispatches for itself first (Proc.dispatchUntilDue): it runs
// the callbacks at the top of the heap on its own stack — the root resumes
// the processes there too — and once one of them has signalled the condition
// and the caller's wake-up has become the top event, it takes that event and
// returns without having been switched out.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	if e := c.eng; e.current != p || e.noFast || !p.dispatchUntilDue() {
		p.park()
	}
}

// Signal wakes the longest-waiting process, scheduling it at the current
// virtual time. It reports whether a process was woken.
func (c *Cond) Signal() bool {
	n := len(c.waiters)
	if n == 0 {
		return false
	}
	w := c.waiters[0]
	// Shift down rather than re-slice, so the next Wait appends into the
	// same array.
	copy(c.waiters, c.waiters[1:])
	c.waiters[n-1] = nil
	c.waiters = c.waiters[:n-1]
	c.eng.wake(w)
	return true
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.eng.wake(w)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Waiters reports how many processes are parked on the condition.
func (c *Cond) Waiters() int { return len(c.waiters) }
