package expt

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workload"
)

// recordSpec is how every caller records: one smart application at the
// paper's 6.4 MB, read-ahead off.
func recordSpec(app string) RunSpec {
	return RunSpec{
		Apps:    mixSpec([]string{app}, workload.Smart),
		CacheMB: 6.4,
		Alloc:   cache.LRUSP,
		Opts:    Options{ReadAheadOff: true},
	}
}

// recordWithReference records spec while an append-based pair of hooks,
// passed as the spec's own Trace/TraceCtl, collects the same run.
func recordWithReference(spec RunSpec) (rec *Recording, ref []ReplayEvent) {
	spec.Trace = func(ev core.TraceEvent) { ref = append(ref, ReplayEvent{Access: ev.Access}) }
	spec.TraceCtl = func(ev core.CtlEvent) { ref = append(ref, ReplayEvent{IsCtl: true, Ctl: Ctl{&ev}}) }
	return Record(spec), ref
}

// sameEvents compares control events by value through their pointers.
func sameEvents(t *testing.T, got, want []ReplayEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("transcript has %d events, the reference hooks saw %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.IsCtl != w.IsCtl || g.Access != w.Access || g.IsCtl && *g.Ctl.CtlEvent != *w.Ctl.CtlEvent {
			t.Fatalf("event %d: transcript %v %+v %+v, reference %v %+v %+v",
				i, g.IsCtl, g.Access, g.Ctl.CtlEvent, w.IsCtl, w.Access, w.Ctl.CtlEvent)
		}
	}
}

// transcriptBytes is what a transcript holds: its events and the
// control side table.
func transcriptBytes(rec *Recording) float64 {
	return float64(len(rec.Events))*float64(unsafe.Sizeof(ReplayEvent{})) +
		float64(len(rec.Ctls))*float64(unsafe.Sizeof(core.CtlEvent{}))
}

// TestRecordEventSize pins the transcript's layout: an access inline, a
// control event a pointer into Recording.Ctls. 48 B is the floor while
// the benchmark's replay reads Off and Size as int and a control event's
// fields by name through ReplayEvent.Ctl; going lower needs a projection
// the benchmark reads instead.
func TestRecordEventSize(t *testing.T) {
	if got := unsafe.Sizeof(core.Access{}); got != 32 {
		t.Errorf("core.Access is %d B, want 32", got)
	}
	if got := unsafe.Sizeof(ReplayEvent{}); got != 48 {
		t.Errorf("ReplayEvent is %d B, want 48", got)
	}
}

// TestRecordIdentity: the transcript is, event for event and in order,
// what the spec's own chained hooks saw in the same run, and recording
// changes nothing the run counts. Table 1's Protected pair, a foolish
// read300 beside an oblivious probe, is two processes: split by
// Access.Proc, each has one access per read or write call it made.
func TestRecordIdentity(t *testing.T) {
	protected := table1Spec(490, "Protected")
	protected.Opts.ReadAheadOff = true
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"cs2", recordSpec("cs2")},
		{"ldk", recordSpec("ldk")},
		{"gli", recordSpec("gli")},
		{"pjn", recordSpec("pjn")},
		{"table1-protected", protected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, ref := recordWithReference(tc.spec)
			if len(ref) == 0 {
				t.Fatal("the reference hooks saw nothing")
			}
			sameEvents(t, rec.Events, ref)
			plain := Run(tc.spec)
			if rec.Result.TotalIOs != plain.TotalIOs || rec.Result.CacheStats != plain.CacheStats ||
				rec.Result.PerApp[0].BlockIOs != plain.PerApp[0].BlockIOs {
				t.Errorf("recorded run: %d I/Os, cache %+v; unhooked: %d I/Os, cache %+v",
					rec.Result.TotalIOs, rec.Result.CacheStats, plain.TotalIOs, plain.CacheStats)
			}
			perProc := make([]int64, len(rec.Result.PerApp))
			for i, ev := range rec.Events {
				if ev.IsCtl {
					continue
				}
				p := int(ev.Access.Proc)
				if p < 0 || p >= len(perProc) {
					t.Fatalf("access %d is by process %d, the run had %d", i, p, len(perProc))
				}
				perProc[p]++
			}
			for i, a := range rec.Result.PerApp {
				if want := a.Stats.ReadCalls + a.Stats.WriteCalls; perProc[i] != want {
					t.Errorf("process %d (%s): %d accesses, it made %d read and write calls", i, a.Name, perProc[i], want)
				}
			}
		})
	}
}

// TestRecordBoundaries: transcripts that end one short of a chunk, on
// it, one past it and on the second are whole, in order and exactly
// sized. An oblivious readN leaves 5 x blocks + 1 events (its file's
// creation), a foolish one three fbehavior calls more.
func TestRecordBoundaries(t *testing.T) {
	readN := func(n, blocks int32, mode workload.Mode) AppSpec {
		return namedApp(fmt.Sprintf("read%d", n), func() workload.App { return workload.ReadN(n, blocks, 0) }, mode)
	}
	cases := []struct {
		want int
		apps []AppSpec
	}{
		{chunkEvents - 1, []AppSpec{readN(100, 409, workload.Oblivious), readN(90, 409, workload.Foolish)}},
		{chunkEvents, []AppSpec{readN(100, 819, workload.Oblivious)}},
		{chunkEvents + 1, []AppSpec{readN(100, 410, workload.Oblivious), readN(90, 409, workload.Oblivious)}},
		{2 * chunkEvents, []AppSpec{readN(100, 819, workload.Oblivious), readN(90, 819, workload.Oblivious)}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.want), func(t *testing.T) {
			rec, ref := recordWithReference(RunSpec{
				Apps: tc.apps, CacheMB: 6.4, Alloc: cache.LRUSP, Opts: Options{ReadAheadOff: true},
			})
			if len(rec.Events) != tc.want {
				t.Fatalf("transcript has %d events, the case was sized for %d", len(rec.Events), tc.want)
			}
			if cap(rec.Events) != len(rec.Events) {
				t.Errorf("len %d, cap %d: the transcript is not allocated at its size", len(rec.Events), cap(rec.Events))
			}
			k := 0
			for i, ev := range rec.Events {
				switch {
				case ev == (ReplayEvent{}):
					t.Fatalf("event %d of %d is zero", i, len(rec.Events))
				case ev.IsCtl:
					if k == len(rec.Ctls) || ev.Ctl.CtlEvent != &rec.Ctls[k] {
						t.Fatalf("control event %d does not point at Ctls[%d]", i, k)
					}
					k++
				case ev.Ctl.CtlEvent != nil:
					t.Fatalf("access event %d points at a control event", i)
				}
			}
			if k != len(rec.Ctls) {
				t.Errorf("%d control events, %d in Ctls", k, len(rec.Ctls))
			}
			sameEvents(t, rec.Events, ref)
		})
	}
}

// TestRecordBudget: recording allocates its transcript about twice —
// the chunks, then the join — over what the run allocates unhooked. A
// slice regrown by append costs ~6x and fails here, not in a benchmark.
func TestRecordBudget(t *testing.T) {
	spec := recordSpec("pjn")
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var rec *Recording
	plain := allocated(func() { Run(spec) })
	hooked := allocated(func() { rec = Record(spec) })
	transcript := transcriptBytes(rec)
	over := float64(hooked) - float64(plain)
	t.Logf("%d events, a %.1f MB transcript; Record allocated %.1f MB over the unhooked run's %.1f MB (%.2fx)",
		len(rec.Events), transcript/1e6, over/1e6, float64(plain)/1e6, over/transcript)
	if over > 2.3*transcript {
		t.Errorf("Record allocated %.2fx its transcript over an unhooked run, want at most 2.3x", over/transcript)
	}
}

var recordSink *Recording

// BenchmarkRecord records pjn smart, app_mix's largest transcript.
func BenchmarkRecord(b *testing.B) {
	spec := recordSpec("pjn")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recordSink = Record(spec)
	}
	events := float64(len(recordSink.Events))
	b.ReportMetric(events, "events/op")
	b.ReportMetric(transcriptBytes(recordSink)/1e6, "transcript-MB/op")
}

// TestTranscriptIsTheWorkload: a workload's transcript does not depend on
// the machine that records it. The zero spec, acload's (acfcd's default
// profile: lru-sp, revocation on, read-ahead off) and one that differs
// in every machine field record the same events, but for the time of a
// control event. So acload's profile changes no single application's
// transcript; only a mix's interleaving is the machine's.
func TestTranscriptIsTheWorkload(t *testing.T) {
	names := AppNames()
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		for _, mode := range []workload.Mode{workload.Oblivious, workload.Smart, workload.Foolish} {
			apps := mixSpec([]string{name}, mode)
			acload := RunSpec{Apps: apps, Alloc: cache.LRUSP, Revoke: true, Opts: Options{ReadAheadOff: true}}
			other := RunSpec{Apps: apps, CacheMB: 16, Alloc: cache.LRUS, Seed: 7, Revoke: true,
				Opts: Options{ReadAheadOff: true}}
			if mode == workload.Oblivious {
				other.Alloc = cache.GlobalLRU
			}
			want := Record(RunSpec{Apps: apps}).Events
			for spec, got := range map[string][]ReplayEvent{"acload": Record(acload).Events, "other": Record(other).Events} {
				if len(want) == 0 || len(got) != len(want) {
					t.Errorf("%s/%s: the %s spec records %d events, the zero spec %d", name, mode, spec, len(got), len(want))
					continue
				}
				for i, g := range got {
					w := want[i]
					if g.IsCtl != w.IsCtl || g.Access != w.Access || g.IsCtl && untimed(g.Ctl) != untimed(w.Ctl) {
						t.Errorf("%s/%s: event %d of the %s spec is %+v %+v, the zero spec records %+v %+v",
							name, mode, i, spec, g.Access, g.Ctl.CtlEvent, w.Access, w.Ctl.CtlEvent)
						break
					}
				}
			}
		}
	}
}

// untimed is a control event without its time.
func untimed(c Ctl) core.CtlEvent {
	ev := *c.CtlEvent
	ev.Time = 0
	return ev
}
