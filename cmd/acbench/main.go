// Command acbench regenerates every table and figure of "Implementation
// and Performance of Application-Controlled File Caching" (Cao, Felten,
// Li; OSDI 1994) on the simulated reproduction, printing each measurement
// next to the paper's published value.
//
// Usage:
//
//	acbench [-run all|fig4|fig5|fig6|table1|table2|table3|table4|ablation|policies|vm|tournament]
//	        [-sizes 6.4,8,12,16] [-parallel N] [-charts]
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
// acbench prints tables, not timings: per-experiment wall times, the
// run-cache hit ratio and the DES engine counters are the des_paper
// workload of `go run ./benchmark`, reported beside the environment.
//
// -nofastpath forces every virtual-time sleep through the event heap and
// scheduler, disabling the engine's lookahead fast path. Tables and
// figures are byte-identical either way — the flag exists to verify
// exactly that, and to A/B the fast path's wall-clock contribution.
//
// -tournament appends the allocation-policy tournament — every
// registered kernel policy over the scan-heavy Figure 5 mixes, apps
// oblivious so the policy is the only variable — after the requested
// experiments. It is also reachable as -run tournament, which runs only
// the tournament tables.
//
// -charts renders Figures 4-6 as ASCII bar charts instead of tables. It
// honors -parallel and -sizes (the chart runs go through the same
// scheduler and run cache) and ignores -run (charts always cover exactly
// Figures 4-6).
//
// -cpuprofile and -memprofile write pprof profiles (a CPU profile of the
// whole run; a post-GC heap profile at exit) for feeding `go tool pprof`.
//
// Block I/O counts should land close to the paper's; elapsed times are
// produced by a calibrated CPU/disk model and should match in shape
// (who wins, by roughly what factor, where the crossovers fall).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/expt"
)

func main() {
	os.Exit(run())
}

func run() int {
	known := strings.Join(expt.Order, ", ") + ", tournament"
	runFlag := flag.String("run", "all", "experiment to run: all, or one of "+known)
	sizesFlag := flag.String("sizes", "", "comma-separated cache sizes in MB for fig4/fig5/fig6 (default: the paper's 6.4,8,12,16)")
	chartsFlag := flag.Bool("charts", false, "render Figures 4-6 as ASCII bar charts instead of tables")
	parallelFlag := flag.Int("parallel", 0, "max concurrent simulations (default GOMAXPROCS; 1 = serial)")
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
		runner := expt.NewRunner(*parallelFlag, baseOpts)
		for _, c := range expt.Charts(runner, sizes) {
			c.Render(os.Stdout)
		}
		return 0
	}

	ids := expt.Order
	if *runFlag != "all" {
		if _, ok := expt.Experiments[*runFlag]; !ok {
			fmt.Fprintf(os.Stderr, "acbench: unknown experiment %q (want all, %s)\n", *runFlag, known)
			return 2
		}
		ids = []string{*runFlag}
	}

	runner := expt.NewRunner(*parallelFlag, baseOpts)
	for _, id := range ids {
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
			tables[i].Render(os.Stdout)
		}
	}
	if *tournamentFlag && *runFlag != "tournament" {
		for _, tb := range expt.Tournament(runner) {
			tb.Render(os.Stdout)
		}
	}
	return 0
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
