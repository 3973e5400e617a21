package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric. bound is the share of the
// baseline's value by which an end-to-end metric may worsen before
// -compare calls it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics a user of the system sees. Each is defined on
// every workload (README, "End-to-end metrics"): the contract this
// benchmark is run under has every workload report every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"lat_p95_us", "us", "lower", 0.25},
	{"hit_ratio", "ratio", "higher", 0.03},
}

// desIDs are des_paper's experiments in the order it runs them.
var desIDs = []string{"fig4", "fig5", "fig6", "table1", "table2", "table3", "table4", "ablation", "policies", "vm", "tournament"}

// perLayer are the metrics of single layers, layer = module name (proc
// is the Go runtime, client the load generator, trace the tracing
// itself). A metric that does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Server counters, the window's share.
		{"cache.hit_ratio", "ratio", "higher", 0},
		{"cache.evictions_per_req", "ratio", "lower", 0},
		{"cache.consults_per_miss", "ratio", "lower", 0},
		{"cache.overrule_ratio", "ratio", "lower", 0},
		{"cache.placeholder_hits", "count", "lower", 0},
		{"core.store_reads_per_miss", "ratio", "lower", 0},
		{"core.coalesced_misses", "count", "higher", 0},
		{"core.prefetch_hit_ratio", "ratio", "higher", 0},
		{"core.writeback_hits", "count", "higher", 0},
		{"core.writeback_stalls", "count", "lower", 0},
		{"core.writeback_queue_high_water", "count", "lower", 0},
		{"server.fill_batch_blocks_mean", "count", "higher", 0},
		{"server.fill_queue_high_water", "count", "lower", 0},
		{"server.wire_copy_fallbacks", "count", "lower", 0},
		{"server.refused", "count", "lower", 0},
		// Process and client, untraced window.
		{"proc.cpu_us_per_req", "us", "lower", 0},
		{"proc.allocs_per_req", "count", "lower", 0},
		{"proc.gc_pause_ms", "ms", "lower", 0},
		{"proc.gc_cycles", "count", "lower", 0},
		{"client.req_per_s", "1/s", "higher", 0},
		{"client.lat_p50_us", "us", "lower", 0},
		{"client.lat_p99_us", "us", "lower", 0},
		{"client.lat_p999_us", "us", "lower", 0},
		{"client.bytes_per_s", "1/s", "higher", 0},
		{"client.hit_rtt_p50_us", "us", "lower", 0},
		{"client.miss_rtt_p50_us", "us", "lower", 0},
		{"client.open_ok_rate", "1/s", "higher", 0},
		{"client.open_late_p99_us", "us", "lower", 0},
		{"client.open_backlog_max", "count", "lower", 0},
	}
	for r := 1; r <= 3; r++ {
		defs = append(defs,
			metricDef{fmt.Sprintf("client.open_p50_us.r%d", r), "us", "lower", 0},
			metricDef{fmt.Sprintf("client.open_p99_us.r%d", r), "us", "lower", 0})
	}
	defs = append(defs,
		// Traced window, spans from the store wrapper and the connections.
		metricDef{"disk.read_calls", "count", "lower", 0},
		metricDef{"disk.read_blocks_per_call", "count", "higher", 0},
		metricDef{"disk.read_busy_s", "s", "lower", 0},
		metricDef{"disk.read_call_p50_us", "us", "lower", 0},
		metricDef{"disk.read_call_p99_us", "us", "lower", 0},
		metricDef{"disk.write_calls", "count", "lower", 0},
		metricDef{"disk.write_blocks_per_call", "count", "higher", 0},
		metricDef{"disk.write_busy_s", "s", "lower", 0},
		metricDef{"disk.errors", "count", "lower", 0},
		metricDef{"disk.vector_read_share", "ratio", "higher", 0},
		metricDef{"core.fill_wait_p50_us", "us", "lower", 0},
		metricDef{"trace.req_per_s", "1/s", "higher", 0},
		metricDef{"trace.overhead_frac", "ratio", "lower", 0},
		// Isolated layer replays.
		metricDef{"server.codec_ns_per_frame", "ns", "lower", 0},
		metricDef{"core.live_ns_per_op", "ns", "lower", 0},
		metricDef{"cache.lookup_hit_ns", "ns", "lower", 0},
		metricDef{"cache.miss_evict_ns", "ns", "lower", 0},
		metricDef{"acm.replace_block_ns", "ns", "lower", 0},
		metricDef{"disk.filestore_read_us_per_block", "us", "lower", 0},
		metricDef{"disk.filestore_write_us_per_block", "us", "lower", 0},
		metricDef{"disk.store_cpu_ns_per_req", "ns", "lower", 0},
		metricDef{"server.residual_cpu_ns_per_req", "ns", "lower", 0},
		// des_paper.
		metricDef{"des.wall_s", "s", "lower", 0},
		metricDef{"des.io_ratio_mae", "ratio", "lower", 0},
		metricDef{"des.tables_match", "bool", "higher", 0},
		metricDef{"expt.memo_hit_ratio", "ratio", "higher", 0},
		metricDef{"sim.ns_per_event", "ns", "lower", 0},
		metricDef{"sim.fast_advance_share", "ratio", "higher", 0},
		metricDef{"sim.handoff_ns", "ns", "lower", 0},
		metricDef{"sim.fast_sleep_ns", "ns", "lower", 0},
		metricDef{"sim.events_scheduled", "count", "lower", 0},
		metricDef{"sim.handoffs", "count", "lower", 0},
		metricDef{"cache.des_hits", "count", "higher", 0},
		metricDef{"cache.des_misses", "count", "lower", 0},
		metricDef{"cache.des_consults", "count", "lower", 0},
		metricDef{"cache.des_overrules", "count", "lower", 0},
		metricDef{"cache.des_placeholder_hits", "count", "lower", 0},
	)
	for _, id := range desIDs {
		defs = append(defs, metricDef{"expt.wall_s." + id, "s", "lower", 0})
	}
	return defs
}()

// The latency limit an open-loop rung must meet at its 99th percentile,
// with no failed operation and a backlog that is not growing, to count
// towards client.open_ok_rate.
const openLatencyLimitUs = 5000

// endToEndMetrics fills m from an untraced measured window.
func endToEndMetrics(m map[string]float64, wl workload, w *windowResult, setupS float64) {
	m["setup_s"] = setupS
	m["rss_mb"] = w.rssMB
	m["cpu_us_per_req"] = w.cpuUsPerReq()
	m["hit_ratio"] = ratio(float64(w.stats.hits), float64(w.stats.hits+w.stats.misses))
	m["req_per_s"] = w.reqPerSec()
	lat := w.stats.lat()
	if wl.traits().rungs != nil {
		// An open loop is offered one rate for the whole of this window (the
		// middle rung): the throughput is what it kept up with, the latency is
		// from the intended send time.
		m["req_per_s"] = ratio(float64(w.stats.rungs[0].done), w.dur.Seconds())
	}
	m["lat_p95_us"] = lat.quantileIf(0.95)
	if wl.traits().laps {
		return // a lap's stretches differ by design; its latency is the window's
	}
	// The median over the window's slices of each slice's 95th percentile:
	// the typical stretch, whatever the worst ones held. This sandbox
	// freezes for 50 to 250 ms a few times a minute, and the requests
	// caught in one freeze would otherwise be the window's tail.
	var per []float64
	for k := 0; time.Duration(k+1)*sliceDur <= w.planned && k < len(w.stats.slices); k++ {
		if h := &w.stats.slices[k]; tailSupported(h.n, 0.95) {
			per = append(per, h.quantile(0.95)/1e3)
		}
	}
	if len(per) >= 3 {
		m["lat_p95_us"] = median(per)
	}
}

// layerMetrics fills m from a traced run's two windows: plain (untraced)
// gives the client, process and counter metrics, traced the spans.
func layerMetrics(m map[string]float64, wl workload, plain, traced *windowResult) {
	k, reqs := plain.kernel(), float64(plain.stats.done)
	misses := float64(k.Cache.Misses)
	m["cache.hit_ratio"] = plain.cacheHitRatio()
	m["cache.evictions_per_req"] = ratio(float64(k.Cache.Evictions), reqs)
	m["cache.consults_per_miss"] = ratio(float64(k.Cache.Consults), misses)
	m["cache.overrule_ratio"] = ratio(float64(k.Cache.Overrules), float64(k.Cache.Consults))
	m["cache.placeholder_hits"] = float64(k.Cache.PlaceholderHits)
	m["core.store_reads_per_miss"] = ratio(float64(k.Fill.StoreReads), misses)
	m["core.coalesced_misses"] = float64(k.Fill.CoalescedMisses)
	m["core.prefetch_hit_ratio"] = ratio(float64(k.Fill.PrefetchHits), float64(k.Fill.PrefetchIssued))
	m["core.writeback_hits"] = float64(k.Fill.WritebackHits)
	m["core.writeback_stalls"] = float64(k.Fill.WritebackStalls)
	m["core.writeback_queue_high_water"] = float64(k.Fill.WritebackQueueHighWater)
	m["server.fill_batch_blocks_mean"] = ratio(float64(k.Fill.FillBatchBlocks), float64(k.Fill.BatchedFills))
	m["server.fill_queue_high_water"] = float64(k.Fill.FillQueueHighWater)
	m["server.wire_copy_fallbacks"] = float64(k.Fill.WireCopyFallbacks)
	m["server.refused"] = float64(plain.after.server.Refused - plain.before.server.Refused)

	mem0, mem1 := &plain.before.mem, &plain.after.mem
	m["proc.cpu_us_per_req"] = plain.cpuUsPerReq()
	m["proc.allocs_per_req"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), reqs)
	m["proc.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["proc.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["client.req_per_s"] = plain.reqPerSec()
	lat := plain.stats.lat()
	m["client.lat_p50_us"] = lat.quantileIf(0.5)
	m["client.lat_p99_us"] = lat.quantileIf(0.99)
	m["client.lat_p999_us"] = lat.quantileIf(0.999)
	m["client.bytes_per_s"] = ratio(float64(plain.stats.bytes), plain.dur.Seconds())
	m["client.hit_rtt_p50_us"] = plain.stats.hitRTT.quantileIf(0.5)
	m["client.miss_rtt_p50_us"] = plain.stats.missRTT.quantileIf(0.5)
	if rungs := wl.traits().rungs; rungs != nil {
		for i := range rungs {
			r := &plain.stats.rungs[i]
			rungDur := plain.dur.Seconds() * rungShare[i]
			p99 := r.lat.quantileIf(0.99)
			m[fmt.Sprintf("client.open_p50_us.r%d", i+1)] = r.lat.quantileIf(0.5)
			m[fmt.Sprintf("client.open_p99_us.r%d", i+1)] = p99
			m["client.open_late_p99_us"] = max(m["client.open_late_p99_us"], r.late.quantileIf(0.99))
			m["client.open_backlog_max"] = max(m["client.open_backlog_max"], float64(r.backlogMax))
			// A backlog that is not growing: what was sent in the rung was
			// answered in about the rung's time.
			keptUp := float64(r.done) >= 0.99*float64(r.sent) && ratio(float64(r.done), rungDur) >= 0.95*rungs[i]
			if p99 > 0 && p99 <= openLatencyLimitUs && r.failed == 0 && keptUp {
				m["client.open_ok_rate"] = rungs[i]
			}
		}
	}

	st := traced.store()
	m["disk.read_calls"] = float64(st.readCalls)
	m["disk.read_blocks_per_call"] = ratio(float64(st.readBlocks), float64(st.readCalls))
	m["disk.read_busy_s"] = float64(st.readBusy) / 1e9
	m["disk.read_call_p50_us"] = traced.readCall.quantileIf(0.5)
	m["disk.read_call_p99_us"] = traced.readCall.quantileIf(0.99)
	m["disk.write_calls"] = float64(st.writeCalls)
	m["disk.write_blocks_per_call"] = ratio(float64(st.writeBlocks), float64(st.writeCalls))
	m["disk.write_busy_s"] = float64(st.writeBusy) / 1e9
	m["disk.errors"] = float64(st.errors)
	scalar, vector := traced.after.io[0]-traced.before.io[0], traced.after.io[1]-traced.before.io[1]
	m["disk.vector_read_share"] = ratio(float64(vector), float64(scalar+vector))
	m["core.fill_wait_p50_us"] = fillWait(traced).quantileIf(0.5)
	m["trace.req_per_s"] = traced.reqPerSec()
	if wl.traits().rungs == nil {
		m["trace.overhead_frac"] = 1 - ratio(traced.reqPerSec(), plain.reqPerSec())
	} else {
		// An open loop is offered the same load traced or not; what tracing
		// costs it shows as CPU.
		m["trace.overhead_frac"] = ratio(traced.cpuUsPerReq(), plain.cpuUsPerReq()) - 1
	}
	// The store's CPU per request. A FileStore call here is a page-cache
	// copy, so its time is CPU; a MemStore call with a latency is a
	// sleep, and without one its copy is already inside the core.Live
	// replay, so it adds none.
	if wl.traits().store == storeFile {
		m["disk.store_cpu_ns_per_req"] = ratio(float64(st.readBusy+st.writeBusy), float64(traced.stats.done))
	}
}

// fillWait is, for each traced miss, its round trip minus the store call
// that filled it: queueing for a fill worker plus the kernel's own time.
// A miss's store call is the read of its (file, block) that ended inside
// the request's span; misses that joined a fill already in flight when
// they were sent have none that started after them and take the one that
// ended last before they were answered.
func fillWait(traced *windowResult) *hist {
	type key struct {
		file uint32
		blk  int32
	}
	reads := make(map[key][]*storeSpan)
	for i := range traced.storeSpans {
		sp := &traced.storeSpans[i]
		if sp.Write {
			continue
		}
		for _, b := range sp.Blocks {
			k := key{uint32(b.File), b.Blk}
			reads[k] = append(reads[k], sp)
		}
	}
	var h hist
	for i := range traced.stats.spans {
		rq := &traced.stats.spans[i]
		if rq.Hit || !rq.OK {
			continue
		}
		var parent *storeSpan
		for _, sp := range reads[key{rq.File, rq.Blk}] {
			if sp.End >= rq.Sent && sp.End <= rq.Recv && (parent == nil || sp.End > parent.End) {
				parent = sp
			}
		}
		if parent != nil {
			h.add(rq.Recv - rq.Sent - (parent.End - max(parent.Start, rq.Sent)))
		}
	}
	return &h
}

// reconcile computes what is left of a request's CPU time once the
// isolated layers are taken out: sockets, goroutine hops, shard-loop
// queueing and the load generator — the share in-program tracing must
// later split.
func reconcile(m map[string]float64) {
	m["server.residual_cpu_ns_per_req"] = m["proc.cpu_us_per_req"]*1e3 -
		m["core.live_ns_per_op"] - 2*m["server.codec_ns_per_frame"] - m["disk.store_cpu_ns_per_req"]
}

// writeSpans writes a traced window's spans under the out directory,
// one JSON object a line: requests first, then store calls.
func writeSpans(cfg runConfig, name string, traced *windowResult) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	spans := traced.stats.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].Sent < spans[j].Sent })
	for i := range spans {
		if err = enc.Encode(struct {
			Kind string `json:"kind"`
			*reqSpan
		}{"request", &spans[i]}); err != nil {
			break
		}
	}
	for i := range traced.storeSpans {
		if err != nil {
			break
		}
		err = enc.Encode(struct {
			Kind string `json:"kind"`
			*storeSpan
		}{"store", &traced.storeSpans[i]})
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
