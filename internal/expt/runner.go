package expt

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// Runner schedules RunSpec executions across a pool of workers and
// memoizes results. Every simulated machine is a deterministic pure
// function of its RunSpec and runs on goroutines of its own, so
// independent specs are embarrassingly parallel; the Runner exploits that
// while drivers keep consuming results in their original, deterministic
// order, which keeps rendered tables byte-identical to the serial path.
//
// Specs shared between experiments (the oblivious baselines reused for
// normalization, the LRU-SP runs common to Figure 5 and Figure 6, ...)
// execute exactly once per Runner: results are cached under a canonical
// fingerprint of the spec. Specs that cannot be fingerprinted — a non-nil
// Trace callback, whose results escape through a side channel, or an
// AppSpec without a Name, whose constructor closure is opaque — bypass
// the cache and always execute.
//
// A nil *Runner is valid everywhere a Runner is accepted: it runs every
// spec inline, serially, with no cache — the legacy behavior.
type Runner struct {
	base Options // merged into every submitted spec
	sem  chan struct{}

	mu     sync.Mutex
	cache  map[string]*Future
	stats  RunnerStats
	kernel stats.Snapshot // aggregated over every executed simulation
}

// RunnerStats counts scheduler activity. Executed is the number of
// simulations actually run; Hits is the number of submissions served from
// the memo cache; Misses counts cacheable submissions that had to run;
// Bypasses counts uncacheable submissions (traced runs, unnamed apps).
// Executed == Misses + Bypasses.
type RunnerStats struct {
	Executed int64
	Hits     int64
	Misses   int64
	Bypasses int64
}

// NewRunner returns a scheduler running up to parallelism simulations
// concurrently. Parallelism <= 0 selects GOMAXPROCS; 1 selects the legacy
// serial path (specs run inline on the consuming goroutine, still
// memoized). An optional Options value applies to every spec submitted
// to this Runner (merged per Options.merge, spec fields taking
// precedence): the suite-wide knobs that used to be a package global.
func NewRunner(parallelism int, opts ...Options) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	r := &Runner{cache: make(map[string]*Future)}
	for _, o := range opts {
		r.base = r.base.merge(o)
	}
	if parallelism > 1 {
		r.sem = make(chan struct{}, parallelism)
	}
	return r
}

// Stats returns a snapshot of the scheduler counters.
func (r *Runner) Stats() RunnerStats {
	if r == nil {
		return RunnerStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// KernelSnapshot returns the full kernel counters — buffer cache plus
// DES engine — aggregated over every simulation this Runner executed.
// It is the same stats.Snapshot schema the acfcd daemon's /metrics
// endpoint exposes, so the benchmark's des_paper workload and the server
// report identically named counters.
func (r *Runner) KernelSnapshot() stats.Snapshot {
	if r == nil {
		return stats.Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kernel
}

// Future is a pending (or completed) RunResult.
type Future struct {
	spec RunSpec
	once sync.Once
	done chan struct{}
	res  RunResult
}

func (f *Future) run(r *Runner) {
	f.once.Do(func() {
		f.res = Run(f.spec)
		if r != nil {
			r.mu.Lock()
			r.stats.Executed++
			r.kernel.Accumulate(stats.Snapshot{Cache: f.res.CacheStats, Sim: f.res.Sim})
			r.mu.Unlock()
		}
		close(f.done)
	})
}

// Wait blocks until the result is available and returns it. On a serial
// Runner the simulation executes inline on the calling goroutine, which
// reproduces the legacy one-at-a-time execution order exactly.
func (f *Future) Wait() RunResult {
	<-f.done
	return f.res
}

// Submit schedules spec for execution and returns its Future. The
// Runner's base Options merge into the spec first, so the memo key and
// the execution both see the effective option set. Cacheable specs
// already submitted to this Runner return the existing Future, so the
// simulation runs at most once. On a nil Runner the spec executes
// immediately, inline, with no base Options.
func (r *Runner) Submit(spec RunSpec) *Future {
	if r == nil {
		f := &Future{spec: spec, done: make(chan struct{})}
		f.res = Run(spec)
		close(f.done)
		return f
	}
	spec.Opts = spec.Opts.merge(r.base)
	key, cacheable := fingerprint(spec)
	r.mu.Lock()
	if cacheable {
		if f, ok := r.cache[key]; ok {
			r.stats.Hits++
			r.mu.Unlock()
			return f
		}
		r.stats.Misses++
	} else {
		r.stats.Bypasses++
	}
	f := &Future{spec: spec, done: make(chan struct{})}
	if cacheable {
		r.cache[key] = f
	}
	r.mu.Unlock()
	if r.sem != nil {
		go func() {
			r.sem <- struct{}{}
			f.run(r)
			<-r.sem
		}()
	} else {
		// Serial path: execute now, on the submitting goroutine, so
		// scheduling stays exactly the legacy depth-first order.
		f.run(r)
	}
	return f
}

// defaultSeed is what core substitutes when RunSpec.Seed is zero; the
// fingerprint normalizes Seed through it so "unset" and "explicitly the
// default" memoize to the same run.
var defaultSeed = core.DefaultConfig().Seed

// fingerprint derives the canonical cache key for a spec. The boolean
// reports cacheability: a spec with a Trace callback leaks per-access
// events to the caller (the callback would not fire again on a cache
// hit), and an AppSpec with an empty Name gives no way to identify what
// its Make closure builds, so both bypass the cache. Every other RunSpec
// field participates in the key — two specs that could ever produce
// different results must never collide.
func fingerprint(spec RunSpec) (string, bool) {
	if spec.Trace != nil || spec.TraceCtl != nil {
		return "", false
	}
	var b strings.Builder
	for _, a := range spec.Apps {
		if a.Name == "" {
			return "", false
		}
		fmt.Fprintf(&b, "%s/%d;", a.Name, a.Mode)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	fmt.Fprintf(&b, "|mb=%g|alloc=%s|seed=%d|rev=%t|raoff=%t|rad=%d|ss=%t|up=%d|fifo=%t|nofast=%t",
		spec.CacheMB, spec.Alloc.String(), seed,
		spec.Revoke, spec.Opts.ReadAheadOff, spec.Opts.ReadAheadDepth, spec.SpreadSync, spec.UpcallCPU, spec.FIFODisk,
		spec.Opts.NoFastPath)
	return b.String(), true
}
