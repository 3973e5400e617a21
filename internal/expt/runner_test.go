package expt

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workload"
)

// fig4Cell is one Figure 4 cell (din at 6.4 MB, original kernel) — small
// enough to run several times in a test.
func fig4Cell() RunSpec {
	return RunSpec{
		Apps:    mixSpec([]string{"din"}, workload.Oblivious),
		CacheMB: 6.4,
		Alloc:   cache.GlobalLRU,
	}
}

// TestRunnerParallelMatchesSerial is the scheduler's core determinism
// contract: a spec run through a parallel Runner returns exactly the
// RunResult of the legacy serial path.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	spec := fig4Cell()
	serial := Run(spec)
	par := NewRunner(8).Submit(spec).Wait()
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel result differs from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

// TestRunnerCacheHitDeepEqual verifies memoized results are
// indistinguishable from cold runs and that the hit/miss counters track
// submissions.
func TestRunnerCacheHitDeepEqual(t *testing.T) {
	r := NewRunner(2)
	cold := r.Submit(fig4Cell()).Wait()
	hit := r.Submit(fig4Cell()).Wait()
	if !reflect.DeepEqual(cold, hit) {
		t.Errorf("cache hit differs from cold run:\ncold: %+v\nhit: %+v", cold, hit)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Executed != 1 || st.Bypasses != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 executed / 0 bypasses", st)
	}
}

// TestRunnerTableBytesIdentical renders a full driver table through the
// serial path and a wide parallel Runner and compares the bytes — the
// property `acbench -run all` relies on for reproducible output.
func TestRunnerTableBytesIdentical(t *testing.T) {
	render := func(r *Runner) []byte {
		var buf bytes.Buffer
		for _, tbl := range Table1(r) {
			tbl.Render(&buf)
		}
		return buf.Bytes()
	}
	serial := render(NewRunner(1))
	parallel := render(NewRunner(8))
	if !bytes.Equal(serial, parallel) {
		t.Errorf("table bytes differ between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
}

func TestFingerprint(t *testing.T) {
	base := fig4Cell()
	key, ok := fingerprint(base)
	if !ok || key == "" {
		t.Fatalf("base spec not cacheable: %q, %v", key, ok)
	}
	// Seed 0 and the default seed memoize to the same run.
	seeded := base
	seeded.Seed = core.DefaultConfig().Seed
	if k2, ok := fingerprint(seeded); !ok || k2 != key {
		t.Errorf("seed 0 and default seed diverge: %q vs %q", key, k2)
	}
	// Every behavior-relevant field must change the key.
	variants := []func(*RunSpec){
		func(s *RunSpec) { s.CacheMB = 16 },
		func(s *RunSpec) { s.Alloc = cache.LRUSP },
		func(s *RunSpec) { s.Seed = 7 },
		func(s *RunSpec) { s.Revoke = true },
		func(s *RunSpec) { s.Opts.ReadAheadOff = true },
		func(s *RunSpec) { s.Opts.ReadAheadDepth = 4 },
		func(s *RunSpec) { s.Opts.NoFastPath = true },
		func(s *RunSpec) { s.SpreadSync = true },
		func(s *RunSpec) { s.UpcallCPU = 1000 },
		func(s *RunSpec) { s.FIFODisk = true },
		func(s *RunSpec) { s.Apps = mixSpec([]string{"din"}, workload.Smart) },
		func(s *RunSpec) { s.Apps = mixSpec([]string{"sort"}, workload.Oblivious) },
	}
	for i, mutate := range variants {
		s := fig4Cell()
		mutate(&s)
		k, ok := fingerprint(s)
		if !ok {
			t.Errorf("variant %d not cacheable", i)
			continue
		}
		if k == key {
			t.Errorf("variant %d collides with base key %q", i, key)
		}
	}
	// Traced specs and unnamed apps bypass the cache.
	traced := fig4Cell()
	traced.Trace = func(core.TraceEvent) {}
	if _, ok := fingerprint(traced); ok {
		t.Error("traced spec reported cacheable")
	}
	unnamed := fig4Cell()
	unnamed.Apps = []AppSpec{{Make: workload.Dinero, Mode: workload.Oblivious}}
	if _, ok := fingerprint(unnamed); ok {
		t.Error("unnamed app reported cacheable")
	}
}

// TestRunnerBypassExecutes confirms uncacheable (traced) specs run every
// time and are counted as bypasses — the Trace callback must fire on each
// submission.
func TestRunnerBypassExecutes(t *testing.T) {
	r := NewRunner(2)
	count := func() int {
		n := 0
		spec := fig4Cell()
		spec.Trace = func(core.TraceEvent) { n++ }
		r.Submit(spec).Wait()
		return n
	}
	a, b := count(), count()
	if a == 0 || a != b {
		t.Errorf("trace events: %d then %d, want equal and nonzero", a, b)
	}
	st := r.Stats()
	if st.Bypasses != 2 || st.Executed != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 bypasses / 2 executed / 0 hits", st)
	}
}

// noopApp performs no work at all, so its runs elapse zero virtual time.
type noopApp struct{}

func (noopApp) Name() string                  { return "noop" }
func (noopApp) DefaultDisk() int              { return 0 }
func (noopApp) Prepare(*core.System)          {}
func (noopApp) Run(*core.Proc, workload.Mode) {}

// TestRunRepeatedZeroElapsedNoNaN guards the VarianceFrac division: a
// degenerate run whose elapsed time is zero must report 0 deviation, not
// NaN.
func TestRunRepeatedZeroElapsedNoNaN(t *testing.T) {
	st := RunRepeated(nil, RunSpec{
		Apps: []AppSpec{namedApp("noop", func() workload.App { return noopApp{} }, workload.Oblivious)},
	}, 3)
	if st.MeanElapsed != 0 {
		t.Fatalf("noop run elapsed %v, want 0", st.MeanElapsed)
	}
	if st.VarianceFrac != 0 {
		t.Errorf("zero-length runs: VarianceFrac = %v, want 0", st.VarianceFrac)
	}
}
