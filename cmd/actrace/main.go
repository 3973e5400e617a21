// Command actrace runs one of the paper's workloads and either dumps its
// block reference stream or prints a summary of the run: per-process
// statistics, buffer-cache counters, manager decision quality, and
// per-disk behaviour.
//
// Usage:
//
//	actrace -app din [-mode smart] [-cache 6.4] [-alloc lru-sp] [-dump]
//
// With -dump, every access is written to stdout as
//
//	time proc file:block [R|W] [hit|miss]
//
// which is handy for eyeballing an application's access pattern or
// feeding another cache simulator.
package main

import (
	"bufio"
	"errors"
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
	appFlag := flag.String("app", "", "workload: "+strings.Join(expt.AppNames(), ", "))
	modeFlag := flag.String("mode", "smart", "oblivious, smart or foolish")
	cacheFlag := flag.Float64("cache", 6.4, "cache size in MB")
	allocFlag := flag.String("alloc", "lru-sp", fmt.Sprintf("allocation policy: %v", cache.AllocNames()))
	dumpFlag := flag.Bool("dump", false, "dump the block reference stream")
	compareFlag := flag.Bool("compare", false, "replay the reference stream through standalone LRU, MRU and Belady-OPT caches")
	flag.Parse()

	alloc, err := cache.ParseAlloc(*allocFlag)
	var spec expt.AppSpec
	if err == nil {
		spec, err = expt.ParseApp(*appFlag + ":" + *modeFlag)
	}
	if err == nil && alloc == cache.GlobalLRU && spec.Mode != workload.Oblivious {
		err = errors.New("the original kernel (global-lru) supports only oblivious mode")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "actrace: %v\n", err)
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.CacheBytes = core.MB(*cacheFlag)
	cfg.Alloc = alloc
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	var captured []cache.BlockID
	if *compareFlag {
		cfg.Trace = func(ev core.TraceEvent) {
			captured = append(captured, cache.BlockID{File: ev.File, Num: ev.Block})
		}
	} else if *dumpFlag {
		cfg.Trace = func(ev core.TraceEvent) {
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

	sys := core.NewSystem(cfg)
	app := spec.Make()
	p := workload.Launch(sys, app, spec.Mode)
	sys.Run()

	if *compareFlag {
		capacity := cfg.CacheBlocks()
		fmt.Fprintf(out, "%s reference stream: %d refs, %d unique blocks; standalone caches of %d blocks (%.1f MB)\n",
			app.Name(), len(captured), trace.Unique(captured), capacity, *cacheFlag)
		for _, r := range trace.Compare(captured, capacity) {
			fmt.Fprintf(out, "  %-5s %6d misses  %5.1f%% hit ratio\n", r.Policy, r.Misses, 100*r.HitRatio())
		}
		return
	}
	if *dumpFlag {
		return
	}
	st := p.Stats()
	fmt.Fprintf(out, "%s (%s) on %s, %.1f MB cache\n", app.Name(), spec.Mode, alloc, *cacheFlag)
	fmt.Fprintf(out, "  elapsed        %v\n", p.Elapsed())
	fmt.Fprintf(out, "  block I/Os     %d (demand %d, read-ahead %d, write-back %d)\n",
		st.BlockIOs(), st.DemandReads, st.Prefetches, st.WriteBacks)
	fmt.Fprintf(out, "  accesses       %d reads, %d writes (%d hits, %d misses, %.1f%% hit ratio)\n",
		st.ReadCalls, st.WriteCalls, st.Hits, st.Misses,
		100*float64(st.Hits)/float64(st.Hits+st.Misses))
	fmt.Fprintf(out, "  fbehavior      %d calls\n", st.FbehaviorCalls)
	if st.Opens > 0 {
		fmt.Fprintf(out, "  metadata       %d opens, %d inode reads (inode cache %.0f%% hit)\n",
			st.Opens, st.MetadataReads, 100*sys.InodeCache().Stats().HitRatio())
	}
	cs := sys.Cache().Stats()
	fmt.Fprintf(out, "cache: %d evictions, %d overrules, %d placeholder hits, %d revocations\n",
		cs.Evictions, cs.Overrules, cs.PlaceholderHits, cs.Revocations)
	if m, ok := sys.ACM().ManagerOf(p.ID()); ok {
		fmt.Fprintf(out, "manager: %d decisions, %d overrules, %d mistakes\n",
			m.Decisions, m.Overrules, m.Mistakes)
		for _, ls := range m.LevelSizes(nil) { // already sorted by priority
			fmt.Fprintf(out, "  pool %+d: %d blocks (%s)\n", ls.Prio, ls.N, m.PolicyOf(ls.Prio))
		}
	}
	for i := 0; i < 2; i++ {
		d := sys.Disk(i)
		ds := d.Stats()
		if ds.IOs() == 0 {
			continue
		}
		fmt.Fprintf(out, "disk %s: %d reads, %d writes, %d sequential, %d positioned, max queue %d, queue wait %.3fs\n",
			d.Geometry().Name, ds.Reads, ds.Writes, ds.Sequential, ds.RandomAcc, ds.MaxQueue, ds.WaitTotal.Seconds())
	}
}
