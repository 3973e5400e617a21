package expt

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// captureSpec runs one application alone (oblivious, original kernel),
// appending its block reference stream to refs. The Trace callback makes
// it uncacheable by design: the per-access events escape through the
// callback, which would never fire again on a memo hit.
func captureSpec(app string, refs *[]cache.BlockID) RunSpec {
	return RunSpec{
		Apps:    mixSpec([]string{app}, workload.Oblivious),
		CacheMB: 6.4,
		Alloc:   cache.GlobalLRU,
		Trace: func(ev core.TraceEvent) {
			*refs = append(*refs, cache.BlockID{File: ev.File, Num: ev.Block})
		},
	}
}

// Policies replays every workload's own reference stream through
// single-process LRU, MRU, LRU-2 and Belady-optimal caches (trace.Compare)
// at the paper's cache sizes. The capture runs are independent, so they go
// through the Runner (the trace replays themselves are cheap and stay
// inline). The companion paper argues application policies should
// approximate optimal replacement; this table shows how much headroom OPT
// leaves over LRU for each access pattern, and how close the simple MRU
// policy already comes for the cyclic ones.
func Policies(r *Runner, sizes []float64) []Table {
	if sizes == nil {
		sizes = []float64{6.4, 16}
	}
	t := Table{
		ID:    "policies",
		Title: "Single-process replacement policies on each workload's reference stream",
		Note: "Misses from replaying the captured stream through standalone " +
			"caches (no two-level protocol, no read-ahead): the headroom " +
			"between LRU and OPT is what application control is after; MRU " +
			"vs OPT shows how close the paper's simple policy gets on cyclic " +
			"patterns; LRU-2 (O'Neil, cited by the paper for database " +
			"buffering) is the scan-resistant automatic alternative.",
		Header: []string{"app", "MB", "refs", "unique", "LRU miss", "MRU miss", "LRU-2 miss", "OPT miss", "LRU/OPT"},
	}
	var rows []func()
	for _, app := range singleApps {
		refs := new([]cache.BlockID)
		f := r.Submit(captureSpec(app, refs))
		rows = append(rows, func() {
			f.Wait() // the capture run fully populates refs
			for _, mb := range sizes {
				capacity := core.Config{CacheBytes: core.MB(mb)}.CacheBlocks()
				res := trace.Compare(*refs, capacity)
				lru, mru, lru2, opt := res[0], res[1], res[2], res[3]
				ratio := "inf"
				if opt.Misses > 0 {
					ratio = fmtRatio(float64(lru.Misses) / float64(opt.Misses))
				}
				t.Rows = append(t.Rows, []string{
					app, fmt.Sprint(mb),
					fmt.Sprint(len(*refs)), fmt.Sprint(trace.Unique(*refs)),
					fmt.Sprint(lru.Misses), fmt.Sprint(mru.Misses),
					fmt.Sprint(lru2.Misses), fmt.Sprint(opt.Misses),
					ratio,
				})
			}
		})
	}
	collect(rows)
	return []Table{t}
}
