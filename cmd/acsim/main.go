// Command acsim runs an ad-hoc mix of the paper's workloads on one
// simulated machine and prints a per-process result table, then each
// application's I/O breakdown and its manager's decision record. It is
// the free-form companion to acbench's fixed experiments.
//
// Usage:
//
//	acsim -apps din:smart,cs2:oblivious [-cache 6.4] [-alloc lru-sp]
//	      [-seed 1] [-revoke] [-no-readahead] [-dump | -compare]
//
// Each app spec is name[:mode]; the default mode is smart. read300 and
// readN forms (e.g. read490) build the Section 6 synthetic probe. Example:
//
//	acsim -apps "sort:smart,gli:smart,read300:foolish" -cache 16
//
// With -dump, acsim prints every block access instead, as
//
//	time proc file:block [R|W] [hit|miss]
//
// which is handy for eyeballing an application's access pattern or
// feeding another cache simulator. With -compare, it replays the run's
// reference stream through standalone LRU, MRU, LRU-2 and Belady-OPT
// caches of the simulated cache's size (trace.Compare).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// A flag set of its own per call: the Examples run main twice.
	fl := flag.NewFlagSet("acsim", flag.ExitOnError)
	appsFlag := fl.String("apps", "", "comma-separated name[:mode] specs (required)")
	cacheFlag := fl.Float64("cache", 6.4, "cache size in MB")
	allocFlag := fl.String("alloc", "lru-sp", fmt.Sprintf("allocation policy: %v", cache.AllocNames()))
	seedFlag := fl.Uint64("seed", 1, "simulation seed")
	revokeFlag := fl.Bool("revoke", false, "enable foolish-manager revocation")
	noRAFlag := fl.Bool("no-readahead", false, "disable sequential read-ahead")
	dumpFlag := fl.Bool("dump", false, "print the block reference stream instead of the results")
	compareFlag := fl.Bool("compare", false, "replay the reference stream through standalone LRU, MRU, LRU-2 and OPT caches")
	fl.Parse(os.Args[1:])

	if *appsFlag == "" {
		fl.Usage()
		os.Exit(2)
	}
	alloc, err := cache.ParseAlloc(*allocFlag)
	if err != nil {
		fail("%v", err)
	}
	if *cacheFlag <= 0 || *seedFlag == 0 {
		fail("-cache and -seed must be positive") // a zero RunSpec field means its default
	}
	if *dumpFlag && *compareFlag {
		fail("-dump and -compare are exclusive")
	}

	spec := expt.RunSpec{
		CacheMB: *cacheFlag,
		Alloc:   alloc,
		Seed:    *seedFlag,
		Revoke:  *revokeFlag,
		Opts:    expt.Options{ReadAheadOff: *noRAFlag},
	}
	if spec.Apps, err = expt.ParseApps(*appsFlag); err != nil {
		fail("%v", err)
	}
	for _, as := range spec.Apps {
		if alloc == cache.GlobalLRU && as.Mode != workload.Oblivious {
			fail("the original kernel (global-lru) supports only oblivious mode")
		}
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	var refs []cache.BlockID
	if *compareFlag {
		spec.Trace = func(ev core.TraceEvent) {
			refs = append(refs, cache.BlockID{File: ev.File, Num: ev.Block})
		}
	} else if *dumpFlag {
		spec.Trace = func(ev core.TraceEvent) {
			op, res := "R", "miss"
			if ev.Write {
				op = "W"
			}
			if ev.Hit {
				res = "hit"
			}
			fmt.Fprintf(out, "%12d %s f%d:%d %s %s\n", int64(ev.Time), ev.Name, ev.File, ev.Block, op, res)
		}
	}
	res := expt.Run(spec)

	if *compareFlag {
		names := make([]string, len(res.PerApp))
		for i, ar := range res.PerApp {
			names[i] = ar.Name
		}
		capacity := core.Config{CacheBytes: core.MB(*cacheFlag)}.CacheBlocks()
		fmt.Fprintf(out, "%s reference stream: %d refs, %d unique blocks; standalone caches of %d blocks (%.1f MB)\n",
			strings.Join(names, "+"), len(refs), trace.Unique(refs), capacity, *cacheFlag)
		for _, r := range trace.Compare(refs, capacity) {
			fmt.Fprintf(out, "  %-5s %6d misses  %5.1f%% hit ratio\n", r.Policy, r.Misses, 100*r.HitRatio())
		}
		return
	}
	if *dumpFlag {
		return
	}

	fmt.Fprintf(out, "%.1f MB cache, %s, seed %d\n", *cacheFlag, alloc, *seedFlag)
	fmt.Fprintf(out, "%-10s %-10s %10s %10s %10s %10s %8s\n",
		"app", "mode", "elapsed s", "block IOs", "hits", "misses", "hit%")
	for i, ar := range res.PerApp {
		st := ar.Stats
		hitPct := 0.0
		if total := st.Hits + st.Misses; total > 0 {
			hitPct = 100 * float64(st.Hits) / float64(total)
		}
		fmt.Fprintf(out, "%-10s %-10s %10.1f %10d %10d %10d %7.1f%%\n",
			ar.Name, spec.Apps[i].Mode, ar.Elapsed.Seconds(),
			ar.BlockIOs, st.Hits, st.Misses, hitPct)
	}
	cs := res.CacheStats
	fmt.Fprintf(out, "cache: %d evictions, %d overrules, %d placeholder hits, %d revocations\n",
		cs.Evictions, cs.Overrules, cs.PlaceholderHits, cs.Revocations)
	for i, ar := range res.PerApp {
		st, ctl := ar.Stats, ar.Control
		fmt.Fprintf(out, "%s (%s)\n", ar.Name, spec.Apps[i].Mode)
		fmt.Fprintf(out, "  block I/Os     %d (demand %d, read-ahead %d, write-back %d)\n",
			st.BlockIOs(), st.DemandReads, st.Prefetches, st.WriteBacks)
		fmt.Fprintf(out, "  accesses       %d reads, %d writes (%d hits, %d misses)\n",
			st.ReadCalls, st.WriteCalls, st.Hits, st.Misses)
		fmt.Fprintf(out, "  fbehavior      %d calls\n", st.FbehaviorCalls)
		fmt.Fprintf(out, "  metadata       %d opens, %d inode reads\n", st.Opens, st.MetadataReads)
		fmt.Fprintf(out, "  manager        %d decisions, %d mistakes, revoked %t\n", ctl.Decisions, ctl.Mistakes, ctl.Revoked)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "acsim: "+format+"\n", args...)
	os.Exit(2)
}
