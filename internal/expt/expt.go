// Package expt drives the paper's experiments: it assembles machines,
// launches workload mixes, and renders the measurements next to the
// paper's published numbers so every table and figure can be regenerated
// and compared at a glance.
package expt

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AppSpec is one application in a mix. Name identifies what Make builds
// for the Runner's memo cache; it must be unique per distinct workload
// (constructor plus parameters). An empty Name is allowed but makes any
// spec containing it uncacheable.
type AppSpec struct {
	Name string
	Make func() workload.App
	Mode workload.Mode
}

// Options are execution knobs — settings that change how a simulation
// executes rather than what machine it models. They live apart from the
// machine-shaping RunSpec fields so a whole suite can carry one Options
// value on its Runner (acbench -nofastpath) while individual specs still
// override per run (the read-ahead ablation). A Runner merges its base
// Options into every submitted spec: booleans OR, a spec's nonzero
// ReadAheadDepth wins. The merged value participates in the memo
// fingerprint, so two option sets never conflate.
type Options struct {
	// ReadAheadOff disables sequential read-ahead (for ablations and
	// replay capture, whose transcripts must not depend on untraced I/O);
	// ReadAheadDepth overrides the depth when read-ahead is on (0 keeps
	// the default).
	ReadAheadOff   bool
	ReadAheadDepth int
	// NoFastPath disables the DES engine's lookahead fast path, forcing
	// every sleep through the event heap (for differential tests).
	NoFastPath bool
}

// merge folds a Runner's base options into a spec's own: booleans OR,
// the spec's explicit depth wins.
func (o Options) merge(base Options) Options {
	o.ReadAheadOff = o.ReadAheadOff || base.ReadAheadOff
	if o.ReadAheadDepth == 0 {
		o.ReadAheadDepth = base.ReadAheadDepth
	}
	o.NoFastPath = o.NoFastPath || base.NoFastPath
	return o
}

// RunSpec describes one simulated machine execution.
type RunSpec struct {
	Apps    []AppSpec
	CacheMB float64
	Alloc   cache.Alloc
	Seed    uint64
	// Revoke enables the revocation extension.
	Revoke bool
	// Opts are this run's execution knobs; a Runner merges its own base
	// Options in at submission.
	Opts Options
	// SpreadSync smooths the update daemon (Mogul's better update
	// policy) instead of Ultrix's 30-second bursts.
	SpreadSync bool
	// UpcallCPU charges this much CPU per manager consultation,
	// simulating an upcall/RPC control implementation.
	UpcallCPU sim.Time
	// FIFODisk replaces the C-LOOK elevator with arrival-order service.
	FIFODisk bool
	// Trace, when non-nil, receives every block access.
	Trace func(core.TraceEvent)
	// TraceCtl, when non-nil, receives every successful control-plane
	// operation (fbehavior calls, file creation/removal), interleaved in
	// call order with Trace. Record uses the pair to capture replayable
	// workload transcripts for the acfcd server.
	TraceCtl func(core.CtlEvent)
}

// AppResult is one application's outcome.
type AppResult struct {
	Name     string
	Elapsed  sim.Time
	BlockIOs int64
	Stats    core.ProcStats
}

// RunResult is one machine execution's outcome.
type RunResult struct {
	PerApp       []AppResult
	TotalElapsed sim.Time // all applications finished
	TotalIOs     int64
	CacheStats   cache.Stats
	MaxQueue     int       // deepest disk queue seen on any drive
	Sim          sim.Stats // DES engine counters for this machine
}

// RunStats summarizes repeated runs of one spec with varying seeds, the
// paper's averages-of-N-cold-start-runs methodology. Block I/O counts are
// seed-independent (the reference streams are fixed); elapsed times vary
// only through rotational-latency draws, so variances stay small — the
// paper reports the same (under 2% with few exceptions).
type RunStats struct {
	Repeats      int
	MeanElapsed  sim.Time
	VarianceFrac float64 // max |run - mean| / mean over the repeats
	TotalIOs     int64
}

// RunRepeated executes the spec n times with seeds 1..n and aggregates
// elapsed-time statistics. The seed repeats are independent simulations,
// so they are submitted to the Runner together and collected in seed
// order (r may be nil for the inline serial path). It panics if the I/O
// counts differ across seeds, which would mean the seed leaked into a
// reference stream.
func RunRepeated(r *Runner, spec RunSpec, n int) RunStats {
	if n <= 0 {
		n = 1
	}
	futs := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = uint64(i + 1)
		futs = append(futs, r.Submit(s))
	}
	var total sim.Time
	times := make([]sim.Time, 0, n)
	var ios int64 = -1
	for _, f := range futs {
		res := f.Wait()
		times = append(times, res.TotalElapsed)
		total += res.TotalElapsed
		if ios >= 0 && res.TotalIOs != ios {
			panic(fmt.Sprintf("expt: I/O count changed with seed: %d vs %d", res.TotalIOs, ios))
		}
		ios = res.TotalIOs
	}
	mean := total / sim.Time(n)
	var worst float64
	for _, t := range times {
		if mean == 0 {
			// Degenerate zero-length runs: every repeat elapsed 0, so
			// deviation is 0, not NaN.
			break
		}
		d := float64(t-mean) / float64(mean)
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return RunStats{Repeats: n, MeanElapsed: mean, VarianceFrac: worst, TotalIOs: ios}
}

// Run executes one machine to completion.
func Run(spec RunSpec) RunResult {
	cfg := core.DefaultConfig()
	if spec.CacheMB > 0 {
		cfg.CacheBytes = core.MB(spec.CacheMB)
	}
	cfg.Alloc = spec.Alloc
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	cfg.Revoke = spec.Revoke
	if spec.Opts.ReadAheadOff {
		cfg.ReadAhead = false
	}
	if spec.Opts.ReadAheadDepth > 0 {
		cfg.ReadAheadDepth = spec.Opts.ReadAheadDepth
	}
	cfg.SpreadSync = spec.SpreadSync
	cfg.UpcallCPU = spec.UpcallCPU
	if spec.FIFODisk {
		cfg.DiskSched = disk.FIFO
	}
	cfg.Trace = spec.Trace
	cfg.TraceCtl = spec.TraceCtl
	cfg.NoSimFastPath = spec.Opts.NoFastPath
	sys := core.NewSystem(cfg)
	procs := make([]*core.Proc, 0, len(spec.Apps))
	apps := make([]workload.App, 0, len(spec.Apps))
	for _, as := range spec.Apps {
		a := as.Make()
		apps = append(apps, a)
		procs = append(procs, workload.Launch(sys, a, as.Mode))
	}
	sys.Run()
	res := RunResult{
		CacheStats: sys.Cache().Stats(),
		Sim:        sys.SimStats(),
		PerApp:     make([]AppResult, 0, len(procs)),
	}
	for i := 0; i < 2; i++ {
		if q := sys.Disk(i).Stats().MaxQueue; q > res.MaxQueue {
			res.MaxQueue = q
		}
	}
	for i, p := range procs {
		ar := AppResult{
			Name:     apps[i].Name(),
			Elapsed:  p.Elapsed(),
			BlockIOs: p.Stats().BlockIOs(),
			Stats:    p.Stats(),
		}
		res.PerApp = append(res.PerApp, ar)
		res.TotalIOs += ar.BlockIOs
		if end := p.Elapsed(); end > res.TotalElapsed {
			res.TotalElapsed = end
		}
	}
	return res
}

// Sizes are the paper's buffer cache configurations in MB.
var Sizes = []float64{6.4, 8, 12, 16}

// singleApps is the Figure 4 roster in the paper's presentation order.
var singleApps = []string{"din", "cs1", "cs3", "cs2", "gli", "ldk", "pjn", "sort"}

// Registry maps workload names to constructors.
var Registry = map[string]func() workload.App{
	"cs1":  workload.Cscope1,
	"cs2":  workload.Cscope2,
	"cs3":  workload.Cscope3,
	"din":  workload.Dinero,
	"gli":  workload.Glimpse,
	"ldk":  workload.LinkEditor,
	"pjn":  workload.PostgresJoin,
	"sort": workload.Sort,
}

// AppNames lists the Registry's names, sorted.
func AppNames() []string { return slices.Sorted(maps.Keys(Registry)) }

// ParseApp turns a command-line app spec, name[:mode], into an AppSpec.
// name is a Registry name or readN, the Section 6 synthetic probe
// (read300 is the paper's Read300); mode defaults to smart.
func ParseApp(spec string) (AppSpec, error) {
	name, modeName, ok := strings.Cut(spec, ":")
	if !ok {
		modeName = "smart"
	}
	name = strings.TrimSpace(name)
	mode, err := workload.ParseMode(modeName)
	if err != nil {
		return AppSpec{}, err
	}
	mk := Registry[name]
	if rest, ok := strings.CutPrefix(name, "read"); ok && mk == nil {
		if n, err := strconv.Atoi(rest); err == nil && n > 0 {
			mk = func() workload.App { return workload.Probe(int32(n), 0) }
			if n == 300 {
				mk = func() workload.App { return workload.Read300(0) }
			}
		}
	}
	if mk == nil {
		return AppSpec{}, fmt.Errorf("unknown app %q (want %s or readN)", name, strings.Join(AppNames(), ", "))
	}
	return AppSpec{Name: name, Make: mk, Mode: mode}, nil
}

// mixSpec builds the AppSpecs for a named mix like "cs2+gli", every app in
// the given mode. Registry names double as cache-fingerprint names.
func mixSpec(names []string, mode workload.Mode) []AppSpec {
	out := make([]AppSpec, 0, len(names))
	for _, n := range names {
		mk, ok := Registry[n]
		if !ok {
			panic(fmt.Sprintf("expt: unknown workload %q", n))
		}
		out = append(out, AppSpec{Name: n, Make: mk, Mode: mode})
	}
	return out
}

// namedApp builds an AppSpec for an ad-hoc workload constructor; name
// must uniquely encode the constructor and its parameters (e.g.
// "read300@d1", "probe490@d0") so the Runner's memo cache never
// conflates two different workloads.
func namedApp(name string, mk func() workload.App, mode workload.Mode) AppSpec {
	return AppSpec{Name: name, Make: mk, Mode: mode}
}
