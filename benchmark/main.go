// Command benchmark is the repository's yardstick: five workloads, one
// pinned server profile, every metric by name with its unit, outputs
// verified. See README.md beside this file for why each workload exists
// and what each metric is expected to move with.
//
//	go run ./benchmark                               every workload, both passes, a process each
//	go run ./benchmark -workload hot_read -seconds 2 one workload, shortened (development)
//	go run ./benchmark -compare a.json b.json        two results against the bounds
//
// With -workload and -trace both given it makes one pass over one
// workload and prints, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics for -trace 0, the per-layer metrics for -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runSeconds is how long a run must measure for its result to be
// comparable with another: BENCHMARK.json's run_seconds.
const runSeconds = 20

var workloadNames = []string{"des_paper", "hot_read", "cold_scan", "app_mix", "open_zipf"}

func newWorkload(name string) workload {
	switch name {
	case "hot_read":
		return hotRead{}
	case "cold_scan":
		return coldScan{}
	case "app_mix":
		return &appMix{}
	case "open_zipf":
		return &openZipf{}
	}
	return nil
}

// report is the one JSON document a run writes: the environment header
// and every workload's result under it.
type report struct {
	Env environment `json:"env"`
	// Valid says the run may be compared with another: every pass
	// measured for at least runSeconds.
	Valid     bool               `json:"valid"`
	Workloads map[string]*result `json:"workloads"`
}

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", "", "run only this workload (default: all five)")
	seed := flag.Uint64("seed", 1, "seed of the generated op streams")
	seconds := flag.Float64("seconds", runSeconds, fmt.Sprintf("seconds each pass measures; below %d the result is marked not comparable", runSeconds))
	trace := flag.Int("trace", -1, "0: the untraced pass (end-to-end metrics); 1: the traced pass (per-layer metrics); default both")
	compareFlag := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	calibrate := flag.Bool("calibrate", false, "measure open_zipf's closed-loop capacity, from which its rung rates were chosen")
	flag.Parse()

	if *compareFlag {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compare(flag.Arg(0), flag.Arg(1))
	}
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
		if *workloadFlag != "des_paper" && newWorkload(*workloadFlag) == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %v)\n", *workloadFlag, workloadNames)
			return 2
		}
	}
	if flag.NArg() != 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	if *workloadFlag == "open_zipf" || *calibrate {
		// Unconfined it still measures, less steadily; the header says which.
		if err := onOneCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: open_zipf runs unconfined:", err)
		}
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, root: root, outDir: filepath.Join(root, "benchmark", "out")}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *calibrate {
		res, err := runServer(&openZipf{closed: true}, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("open_zipf driven closed, window %d on %d connections: %.0f req/s\n", closedWindow, nConns, res.EndToEnd["req_per_s"])
		return 0
	}

	if *workloadFlag != "" && (*trace >= 0 || *workloadFlag == "des_paper") {
		return runOne(*workloadFlag, cfg, *trace)
	}

	// More than one pass: each runs in a process of its own, as the
	// contract's driver runs them, so that a pass is measured the same
	// way whether asked for alone or with the others. (A stopped server's
	// shard loops never return; in one process the fifth workload would
	// run beside the goroutines and memory of the four before it.)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep := report{Valid: true, Workloads: make(map[string]*result)}
	ok := true
	for _, name := range names {
		passes := []int{0, 1}
		if name == "des_paper" {
			passes = []int{-1} // one lap gives both metric sets
		}
		for _, pass := range passes {
			cmd := exec.Command(self, "-workload", name, "-trace", strconv.Itoa(pass),
				"-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				ok = false // an incorrect result still has a file; a crash does not
			}
			one, err := loadReport(resultFile(cfg, name, pass), false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if rep.Env.NumCPU == 0 {
				rep.Env = one.Env // the first pass's: open_zipf's says one CPU, its own
			}
			rep.Valid = rep.Valid && one.Valid
			rep.Workloads[name] = merge(rep.Workloads[name], one.Workloads[name])
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// resultFile is where one pass over one workload writes its report.
func resultFile(cfg runConfig, name string, trace int) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.seed, trace))
}

// runOne makes one pass over one workload in this process (des_paper:
// both metric sets from its one lap unless trace picks one), prints the
// result, writes its report and, for a pass picked by trace, prints the
// contract's one-line summary last.
func runOne(name string, cfg runConfig, trace int) int {
	cfg.trace = trace != 0
	var res *result
	var err error
	if name == "des_paper" {
		if res, err = runDES(cfg); err == nil && trace == 0 {
			res.PerLayer = nil
		} else if err == nil && trace == 1 {
			res.EndToEnd = nil
		}
	} else {
		res, err = runServer(newWorkload(name), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(name, res)
	rep := report{Env: res.Env, Valid: cfg.seconds >= runSeconds, Workloads: map[string]*result{name: res}}
	if err := writeJSON(resultFile(cfg, name, trace), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if trace >= 0 {
		printContractLine(res, trace == 1)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// merge folds a workload's second pass into its first.
func merge(res, r *result) *result {
	if res == nil {
		return r
	}
	res.PerLayer = r.PerLayer
	res.Attempted += r.Attempted
	res.Failed += r.Failed
	res.Notes = append(res.Notes, r.Notes...)
	res.Correct = res.Correct && r.Correct
	return res
}

// printResult prints every metric of a result by name with its unit.
func printResult(name string, res *result) {
	fmt.Printf("\n== %s: %d operations attempted, %d failed, correct=%t\n", name, res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Println("   !", n)
	}
	for _, set := range []struct {
		defs []metricDef
		m    map[string]float64
	}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
		for _, d := range set.defs {
			if v, ok := set.m[d.Name]; ok {
				fmt.Printf("   %-36s %16s %s\n", d.Name, formatValue(v), d.Unit)
			}
		}
	}
	if m := res.PerLayer; m != nil && name != "des_paper" {
		// Where a request's CPU time goes, as far as it can be told from
		// outside; wall time per request beside it.
		fmt.Printf("   CPU per request %.0f ns = core.Live %.0f + codec 2x%.0f + store %.0f + residual %.0f;  wall per request %.0f ns, tracing overhead %.3f\n",
			m["proc.cpu_us_per_req"]*1e3, m["core.live_ns_per_op"], m["server.codec_ns_per_frame"],
			m["disk.store_cpu_ns_per_req"], m["server.residual_cpu_ns_per_req"],
			ratio(1e9, m["client.req_per_s"]), m["trace.overhead_frac"])
	}
}

// formatValue prints a count in full and anything else to six digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// printContractLine prints the result as the one JSON object the
// benchmark's contract asks for, every metric of the selected set
// present: one that does not apply to the workload reads 0.
func printContractLine(res *result, traced bool) {
	defs, m := endToEnd, res.EndToEnd
	if traced {
		defs, m = perLayer, res.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{m[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// --- -compare ---

// exactLayer are the per-layer metrics that are counts of a
// deterministic simulation: any difference means the model changed.
var exactLayer = []string{
	"des.tables_match", "des.io_ratio_mae", "sim.events_scheduled", "sim.handoffs",
	"cache.des_hits", "cache.des_misses", "cache.des_consults", "cache.des_overrules", "cache.des_placeholder_hits",
}

// loadReport reads a report; comparable also holds it to what -compare
// needs.
func loadReport(path string, comparable bool) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case !comparable:
	case rep.Env.NumCPU == 0 || rep.Env.GoVersion == "" || rep.Env.Commit == "":
		return nil, fmt.Errorf("%s: no environment header: numbers without one are not comparable", path)
	case !rep.Valid:
		return nil, fmt.Errorf("%s: a shortened run (%.3g s a pass, need %d): not comparable", path, rep.Env.Seconds, runSeconds)
	}
	return &rep, nil
}

// compare prints, for every workload the two results share, each
// end-to-end metric's two values, how much worse the second is as a
// share of the first, and the bound; it returns 1 if any is outside its
// bound or any exact count differs.
func compare(pathA, pathB string) int {
	a, err := loadReport(pathA, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadReport(pathB, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Printf("warning: %d CPUs (GOMAXPROCS %d) against %d (%d): not the same machine\n",
			a.Env.NumCPU, a.Env.GOMAXPROCS, b.Env.NumCPU, b.Env.GOMAXPROCS)
	}
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := 0
	fmt.Printf("%-10s %-16s %14s %14s %9s %7s\n", "workload", "metric", pathA, pathB, "worse by", "bound")
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		for _, d := range endToEnd {
			va, okA := ra.EndToEnd[d.Name]
			vb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Printf("%-10s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		for _, n := range exactLayer {
			va, okA := ra.PerLayer[n]
			vb, okB := rb.PerLayer[n]
			if okA && okB && va != vb {
				fmt.Printf("%-10s %-16s %14.6g %14.6g  EXACT COUNT DIFFERS: the model changed\n", name, n, va, vb)
				bad++
			}
		}
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-10s a result is not correct\n", name)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("%d outside bounds\n", bad)
		return 1
	}
	fmt.Println("every metric within its bound")
	return 0
}
