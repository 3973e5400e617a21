package expt

import "repro/internal/core"

// ReplayEvent is one entry in a captured workload transcript: either a
// block access (IsCtl false) or a control-plane operation (IsCtl true).
// The two streams are interleaved in the order the workload issued them,
// which is everything a wire-level replay needs to reproduce the run.
type ReplayEvent struct {
	IsCtl  bool
	Access core.Access
	Ctl    Ctl
}

// Ctl points a control event at its body in Recording.Ctls (nil for an
// access); embedded, the pointer reads as ev.Ctl.Op, ev.Ctl.FileName, ...
type Ctl struct{ *core.CtlEvent }

// Recording is a replayable transcript of one DES run: the spec that
// produced it, every access and control event in issue order, and the
// run's result — the ground truth the acfcd oracle test compares the
// wire replay against.
type Recording struct {
	Spec RunSpec
	// Events is in issue order, allocated once: len == cap.
	Events []ReplayEvent
	// Ctls is the control events' bodies: the k-th IsCtl event's is Ctls[k].
	Ctls   []core.CtlEvent
	Result RunResult
}

// chunkEvents sizes the chunks (~192 KB) Record gathers events in; a
// chunk is filled in place, never copied or regrown.
const chunkEvents = 4096

// Record executes spec with both trace hooks installed and returns the
// transcript: events in issue order, len == cap. The spec's own
// Trace/TraceCtl callbacks, if any, are chained after capture. Traced
// runs are uncacheable, so Record always executes (it calls Run
// directly, no Runner involved). Events are gathered in chunks and
// joined once after the run: memory written is ~2x the transcript.
//
// For the transcript to be exactly replayable the spec should have
// ReadAheadOff set (read-ahead issues I/O the trace does not record)
// and a single app (so replay order is total, not an artifact of the
// simulated interleaving).
func Record(spec RunSpec) *Recording {
	rec := &Recording{Spec: spec}
	var chunks [][]ReplayEvent
	n := 0
	next := func() *ReplayEvent {
		if n%chunkEvents == 0 {
			chunks = append(chunks, make([]ReplayEvent, chunkEvents))
		}
		n++
		return &chunks[len(chunks)-1][(n-1)%chunkEvents]
	}
	prevT, prevC := spec.Trace, spec.TraceCtl
	spec.Trace = func(ev core.TraceEvent) {
		next().Access = ev.Access
		if prevT != nil {
			prevT(ev)
		}
	}
	spec.TraceCtl = func(ev core.CtlEvent) {
		next().IsCtl = true
		rec.Ctls = append(rec.Ctls, ev)
		if prevC != nil {
			prevC(ev)
		}
	}
	rec.Result = Run(spec)
	rec.Events = make([]ReplayEvent, 0, n)
	for _, c := range chunks {
		rec.Events = append(rec.Events, c[:min(chunkEvents, n-len(rec.Events))]...)
	}
	// Pointed only now: appending to Ctls may have moved it.
	k := 0
	for i := range rec.Events {
		if ev := &rec.Events[i]; ev.IsCtl {
			ev.Ctl.CtlEvent, k = &rec.Ctls[k], k+1
		}
	}
	return rec
}
