// Command acsim runs an ad-hoc mix of the paper's workloads on one
// simulated machine and prints a per-process result table. It is the
// free-form companion to acbench's fixed experiments.
//
// Usage:
//
//	acsim -apps din:smart,cs2:oblivious [-cache 6.4] [-alloc lru-sp]
//	      [-seed 1] [-revoke] [-no-readahead]
//
// Each app spec is name[:mode]; the default mode is smart. read300 and
// readN forms (e.g. read490) build the Section 6 synthetic probe. Example:
//
//	acsim -apps "sort:smart,gli:smart,read300:foolish" -cache 16
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/workload"
)

func main() {
	appsFlag := flag.String("apps", "", "comma-separated name[:mode] specs (required)")
	cacheFlag := flag.Float64("cache", 6.4, "cache size in MB")
	allocFlag := flag.String("alloc", "lru-sp", fmt.Sprintf("allocation policy: %v", cache.AllocNames()))
	seedFlag := flag.Uint64("seed", 1, "simulation seed")
	revokeFlag := flag.Bool("revoke", false, "enable foolish-manager revocation")
	noRAFlag := flag.Bool("no-readahead", false, "disable sequential read-ahead")
	flag.Parse()

	if *appsFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	alloc, err := cache.ParseAlloc(*allocFlag)
	if err != nil {
		fail("%v", err)
	}

	cfg := core.DefaultConfig()
	cfg.CacheBytes = core.MB(*cacheFlag)
	cfg.Alloc = alloc
	cfg.Seed = *seedFlag
	cfg.ReadAhead = !*noRAFlag
	if *revokeFlag {
		cfg.Revoke = cache.RevokeConfig{Enabled: true, MinDecisions: 200, MistakeRatio: 0.3}
	}
	sys := core.NewSystem(cfg)

	type launched struct {
		app  workload.App
		mode workload.Mode
		proc *core.Proc
	}
	var runs []launched
	for _, spec := range strings.Split(*appsFlag, ",") {
		as, err := expt.ParseApp(spec)
		if err != nil {
			fail("%v in %q", err, spec)
		}
		if alloc == cache.GlobalLRU && as.Mode != workload.Oblivious {
			fail("the original kernel (global-lru) supports only oblivious mode")
		}
		app := as.Make()
		runs = append(runs, launched{app, as.Mode, workload.Launch(sys, app, as.Mode)})
	}

	sys.Run()

	fmt.Printf("%.1f MB cache, %s, seed %d\n", *cacheFlag, alloc, *seedFlag)
	fmt.Printf("%-10s %-10s %10s %10s %10s %10s %8s\n",
		"app", "mode", "elapsed s", "block IOs", "hits", "misses", "hit%")
	for _, r := range runs {
		st := r.proc.Stats()
		total := st.Hits + st.Misses
		hitPct := 0.0
		if total > 0 {
			hitPct = 100 * float64(st.Hits) / float64(total)
		}
		fmt.Printf("%-10s %-10s %10.1f %10d %10d %10d %7.1f%%\n",
			r.app.Name(), r.mode, r.proc.Elapsed().Seconds(),
			st.BlockIOs(), st.Hits, st.Misses, hitPct)
	}
	cs := sys.Cache().Stats()
	fmt.Printf("cache: %d evictions, %d overrules, %d placeholder hits, %d revocations\n",
		cs.Evictions, cs.Overrules, cs.PlaceholderHits, cs.Revocations)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "acsim: "+format+"\n", args...)
	os.Exit(2)
}
