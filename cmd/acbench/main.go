// Command acbench regenerates every table and figure of "Implementation
// and Performance of Application-Controlled File Caching" (Cao, Felten,
// Li; OSDI 1994) on the simulated reproduction, printing each measurement
// next to the paper's published value.
//
// Usage:
//
//	acbench [-run all|fig4|fig5|fig6|table1|table2|table3|table4|ablation]
//	        [-sizes 6.4,8,12,16] [-parallel N] [-json] [-charts]
//	        [-tournament] [-cpuprofile file] [-memprofile file]
//	        [-nofastpath]
//
// -parallel N runs up to N independent simulations concurrently (default
// GOMAXPROCS; 1 selects the legacy serial path). Every simulation is a
// deterministic function of its spec and results are always assembled in
// presentation order, so the rendered output is byte-identical at any
// parallelism; values below 1 are rejected. Specs shared between
// experiments (the normalization baselines of fig5/fig6, the
// table2/table3 partner runs) are memoized and execute once per
// invocation.
//
// -json replaces the tables on stdout with a machine-readable report:
// per-experiment wall-clock timings, totals, run-cache hit/miss/bypass
// counters, and the aggregated DES engine counters (events scheduled,
// engine<->process handoffs, lookahead fast advances, heap high-water), grouped
// per parallelism level under "runs". Without an explicit -parallel, the
// suite is timed twice — serial and at GOMAXPROCS — so the report
// captures the scheduler speedup (on a single-CPU machine only the
// serial entry is emitted, since GOMAXPROCS coincides with it); with
// -parallel N it records that single level.
//
// -nofastpath forces every virtual-time sleep through the event heap and
// scheduler, disabling the engine's lookahead fast path. Tables and
// figures are byte-identical either way — the flag exists to verify
// exactly that, and to A/B the fast path's wall-clock contribution.
//
// -tournament appends the allocation-policy tournament — every
// registered kernel policy over the scan-heavy Figure 5 mixes, apps
// oblivious so the policy is the only variable — after the requested
// experiments: rendered tables normally, a "policy_tournament" section
// (one structured cell per policy × mix) under -json. It is also
// reachable as -run tournament, which runs only the tournament tables.
//
// -charts renders Figures 4-6 as ASCII bar charts instead of tables. It
// honors -parallel and -sizes (the chart runs go through the same
// scheduler and run cache), ignores -run (charts always cover exactly
// Figures 4-6), and rejects -json, which applies to the table pipeline
// only.
//
// -cpuprofile and -memprofile write pprof profiles (a CPU profile of the
// whole run; a post-GC heap profile at exit) for feeding `go tool pprof`.
//
// Block I/O counts should land close to the paper's; elapsed times are
// produced by a calibrated CPU/disk model and should match in shape
// (who wins, by roughly what factor, where the crossovers fall).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/expt"
	"repro/internal/stats"
)

// expTiming is one experiment's wall-clock cost in the -json report.
type expTiming struct {
	ID     string  `json:"id"`
	Millis float64 `json:"wall_ms"`
}

// jsonRun is one full sweep of the requested experiments at a fixed
// parallelism level.
type jsonRun struct {
	Parallelism int              `json:"parallelism"`
	Experiments []expTiming      `json:"experiments"`
	TotalMillis float64          `json:"total_wall_ms"`
	RunCache    expt.RunnerStats `json:"run_cache"`
	// Kernel aggregates the kernel counters — buffer cache and DES
	// engine — over every simulation the sweep executed, in the same
	// stats.Snapshot schema the acfcd daemon's /metrics endpoint
	// exposes. In the sim block, fast_advances vs handoffs shows how
	// much of the virtual-time advancement needed no switch to the
	// engine and back.
	Kernel stats.Snapshot `json:"kernel"`
}

// jsonReport is the -json output document.
type jsonReport struct {
	Run  string    `json:"run"`
	Runs []jsonRun `json:"runs"`
	// PolicyTournament is the -tournament matrix: one cell per
	// (allocation policy, scan-heavy mix), policy-major.
	PolicyTournament []expt.TournamentResult `json:"policy_tournament,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	runFlag := flag.String("run", "all", "experiment to run: all, or one of "+strings.Join(expt.Order, ", "))
	sizesFlag := flag.String("sizes", "", "comma-separated cache sizes in MB for fig4/fig5/fig6 (default: the paper's 6.4,8,12,16)")
	chartsFlag := flag.Bool("charts", false, "render Figures 4-6 as ASCII bar charts instead of tables")
	parallelFlag := flag.Int("parallel", 0, "max concurrent simulations (default GOMAXPROCS; 1 = serial)")
	jsonFlag := flag.Bool("json", false, "emit machine-readable timings and run-cache stats instead of tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to `file`")
	memProfile := flag.String("memprofile", "", "write a post-GC heap profile at exit to `file`")
	noFastPath := flag.Bool("nofastpath", false, "disable the DES engine's lookahead fast path (output must be byte-identical; for verification and A/B timing)")
	tournamentFlag := flag.Bool("tournament", false, "append the allocation-policy tournament (every policy over the scan-heavy mixes)")
	flag.Parse()

	baseOpts := expt.Options{NoFastPath: *noFastPath}

	if isSet("parallel") && *parallelFlag < 1 {
		fmt.Fprintf(os.Stderr, "acbench: -parallel must be >= 1 (got %d)\n", *parallelFlag)
		return 2
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acbench:", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "acbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "acbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live retention, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "acbench:", err)
			}
		}()
	}

	if *chartsFlag {
		if *jsonFlag {
			fmt.Fprintln(os.Stderr, "acbench: -charts cannot be combined with -json")
			return 2
		}
		runner := expt.NewRunner(*parallelFlag, baseOpts)
		for _, c := range expt.Charts(runner, sizes) {
			c.Render(os.Stdout)
		}
		return 0
	}

	ids := expt.Order
	if *runFlag != "all" {
		if _, ok := expt.Experiments[*runFlag]; !ok {
			fmt.Fprintf(os.Stderr, "acbench: unknown experiment %q (want all, %s)\n",
				*runFlag, strings.Join(expt.Order, ", "))
			return 2
		}
		ids = []string{*runFlag}
	}

	if !*jsonFlag {
		runner := expt.NewRunner(*parallelFlag, baseOpts)
		runSuite(runner, ids, sizes, os.Stdout)
		if *tournamentFlag && *runFlag != "tournament" {
			for _, tb := range expt.Tournament(runner) {
				tb.Render(os.Stdout)
			}
		}
		return 0
	}

	// -json: time the suite per parallelism level. Without an explicit
	// -parallel, record both the serial baseline and the GOMAXPROCS
	// sweep so the report captures the scheduler speedup — except on a
	// single-CPU machine, where GOMAXPROCS is also 1 and a second entry
	// would just repeat the serial measurement.
	levels := []int{*parallelFlag}
	if !isSet("parallel") {
		levels = []int{1}
		if runtime.GOMAXPROCS(0) > 1 {
			levels = append(levels, 0)
		}
	}
	report := jsonReport{Run: *runFlag}
	for _, lvl := range levels {
		report.Runs = append(report.Runs, runSuite(expt.NewRunner(lvl, baseOpts), ids, sizes, io.Discard))
	}
	if *tournamentFlag {
		report.PolicyTournament = expt.RunTournament(expt.NewRunner(*parallelFlag, baseOpts), 6.4)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "acbench:", err)
		return 1
	}
	return 0
}

// runSuite renders the requested experiments through one runner and
// returns the per-experiment and total wall-clock timings.
func runSuite(runner *expt.Runner, ids []string, sizes []float64, out io.Writer) jsonRun {
	res := jsonRun{Parallelism: runner.Parallelism()}
	start := time.Now()
	for _, id := range ids {
		expStart := time.Now()
		var tables []expt.Table
		switch {
		case sizes != nil && id == "fig4":
			tables = expt.Fig4(runner, sizes)
		case sizes != nil && id == "fig5":
			tables = expt.Fig5(runner, sizes)
		case sizes != nil && id == "fig6":
			tables = expt.Fig6(runner, sizes)
		default:
			tables = expt.Experiments[id](runner)
		}
		for i := range tables {
			tables[i].Render(out)
		}
		res.Experiments = append(res.Experiments,
			expTiming{ID: id, Millis: float64(time.Since(expStart)) / float64(time.Millisecond)})
	}
	res.TotalMillis = float64(time.Since(start)) / float64(time.Millisecond)
	res.RunCache = runner.Stats()
	res.Kernel = runner.KernelSnapshot()
	return res
}

// isSet reports whether the named flag appeared on the command line (so
// "-parallel 0" is rejected rather than silently meaning GOMAXPROCS).
func isSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func parseSizes(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad cache size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
