package expt

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/workload"
)

// diffSpecs are the replayed runs of the fast-path differential test: a
// Figure 4 single-application sweep point (one process owns the clock,
// the fast path's best case) and a Table 2 multi-application mix (two
// processes contending for CPU and disk, its worst case).
func diffSpecs() map[string]RunSpec {
	return map[string]RunSpec{
		"fig4-cs2-smart": {
			Apps:    mixSpec([]string{"cs2"}, workload.Smart),
			CacheMB: 6.4,
			Alloc:   cache.LRUSP,
		},
		"table2-gli+foolish-read300": {
			Apps: []AppSpec{
				{Name: "gli", Make: Registry["gli"], Mode: workload.Smart},
				namedApp("read300@d0", func() workload.App { return workload.Read300(0) }, workload.Foolish),
			},
			CacheMB: 6.4,
			Alloc:   cache.LRUSP,
		},
	}
}

// TestFastPathDifferential replays the same runs with the engine's
// lookahead fast path on and off and asserts the simulations are
// observationally identical: per-process block I/O counts, per-process
// end times, full per-process stats, totals, cache counters and disk
// queue depths. Only the engine's own counters may differ.
func TestFastPathDifferential(t *testing.T) {
	for name, spec := range diffSpecs() {
		t.Run(name, func(t *testing.T) {
			fastSpec := spec
			fast := Run(fastSpec)
			slowSpec := spec
			slowSpec.Opts.NoFastPath = true
			slow := Run(slowSpec)

			if fast.Sim.FastAdvances == 0 {
				t.Error("fast engine took zero fast advances (fast path never fired)")
			}
			if slow.Sim.FastAdvances != 0 {
				t.Errorf("parked engine took %d fast advances, want 0", slow.Sim.FastAdvances)
			}
			if fast.Sim.Handoffs >= slow.Sim.Handoffs {
				t.Errorf("fast engine handoffs = %d, want fewer than parked %d",
					fast.Sim.Handoffs, slow.Sim.Handoffs)
			}

			// Everything observable must match exactly; the Sim counter
			// block is the only field allowed to differ.
			fast.Sim, slow.Sim = sim.Stats{}, sim.Stats{}
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("results diverge\nfast:   %+v\nparked: %+v", fast, slow)
			}
			for i := range fast.PerApp {
				f, s := fast.PerApp[i], slow.PerApp[i]
				if f.BlockIOs != s.BlockIOs {
					t.Errorf("%s: BlockIOs %d vs %d", f.Name, f.BlockIOs, s.BlockIOs)
				}
				if f.Elapsed != s.Elapsed {
					t.Errorf("%s: end time %v vs %v", f.Name, f.Elapsed, s.Elapsed)
				}
			}
		})
	}
}

// TestFastPathFingerprintDistinct keeps the memo cache honest: a spec
// with the fast path disabled must never be served a fast-path result
// (the runs are equivalent, but conflating them would let the cache
// quietly bypass the differential check above).
func TestFastPathFingerprintDistinct(t *testing.T) {
	spec := RunSpec{Apps: mixSpec([]string{"cs1"}, workload.Smart), CacheMB: 6.4}
	kOn, ok1 := fingerprint(spec)
	spec.Opts.NoFastPath = true
	kOff, ok2 := fingerprint(spec)
	if !ok1 || !ok2 {
		t.Fatal("specs unexpectedly uncacheable")
	}
	if kOn == kOff {
		t.Error("fast-path-on and -off specs share a fingerprint")
	}
}

// TestSingleAppRunsDoNotSwitch pins what events without a process buy a
// Figure 4 run: with one application on the machine everything else that
// happens — both drives, the update daemon — is a callback the application
// dispatches while it waits, so the engine resumes it a handful of times in
// a run of tens of thousands of block accesses.
func TestSingleAppRunsDoNotSwitch(t *testing.T) {
	for _, app := range singleApps {
		for _, mode := range []workload.Mode{workload.Oblivious, workload.Smart} {
			res := Run(RunSpec{Apps: mixSpec([]string{app}, mode), CacheMB: 6.4, Alloc: cache.LRUSP})
			accesses := res.CacheStats.Hits + res.CacheStats.Misses
			if res.Sim.Handoffs*1000 >= accesses {
				t.Errorf("%s %v: %d handoffs for %d accesses, want fewer than one per thousand",
					app, mode, res.Sim.Handoffs, accesses)
			}
		}
	}
}
