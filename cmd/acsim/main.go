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
	if *cacheFlag <= 0 || *seedFlag == 0 {
		fail("-cache and -seed must be positive") // a zero RunSpec field means its default
	}

	spec := expt.RunSpec{
		CacheMB: *cacheFlag,
		Alloc:   alloc,
		Seed:    *seedFlag,
		Revoke:  *revokeFlag,
		Opts:    expt.Options{ReadAheadOff: *noRAFlag},
	}
	for _, s := range strings.Split(*appsFlag, ",") {
		as, err := expt.ParseApp(s)
		if err != nil {
			fail("%v in %q", err, s)
		}
		if alloc == cache.GlobalLRU && as.Mode != workload.Oblivious {
			fail("the original kernel (global-lru) supports only oblivious mode")
		}
		spec.Apps = append(spec.Apps, as)
	}
	res := expt.Run(spec)

	fmt.Printf("%.1f MB cache, %s, seed %d\n", *cacheFlag, alloc, *seedFlag)
	fmt.Printf("%-10s %-10s %10s %10s %10s %10s %8s\n",
		"app", "mode", "elapsed s", "block IOs", "hits", "misses", "hit%")
	for i, ar := range res.PerApp {
		st := ar.Stats
		total := st.Hits + st.Misses
		hitPct := 0.0
		if total > 0 {
			hitPct = 100 * float64(st.Hits) / float64(total)
		}
		fmt.Printf("%-10s %-10s %10.1f %10d %10d %10d %7.1f%%\n",
			ar.Name, spec.Apps[i].Mode, ar.Elapsed.Seconds(),
			ar.BlockIOs, st.Hits, st.Misses, hitPct)
	}
	cs := res.CacheStats
	fmt.Printf("cache: %d evictions, %d overrules, %d placeholder hits, %d revocations\n",
		cs.Evictions, cs.Overrules, cs.PlaceholderHits, cs.Revocations)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "acsim: "+format+"\n", args...)
	os.Exit(2)
}
