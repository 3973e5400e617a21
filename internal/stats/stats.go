// Package stats defines the one shared snapshot schema for the kernel's
// observable counters: the buffer-cache counters (cache.Stats) and the
// DES engine counters (sim.Stats). The acfcd daemon's wire stats reply,
// server.Metrics and /metrics endpoint and the repository's benchmark
// (benchmark/, for simulations and servers alike) all consume the same
// Snapshot type, and the plaintext metrics exposition is derived
// mechanically from the structs' json tags — so every output names the
// same counter the same way and they cannot drift apart.
package stats

import (
	"fmt"
	"io"
	"reflect"
	"strings"

	"repro/internal/cache"
	"repro/internal/sim"
)

// Snapshot is one observation of the kernel counters. For a DES run the
// Sim block carries the engine's event/handoff statistics; for the live
// (real-clock) kernel behind acfcd there is no DES engine and Sim stays
// zero. Fill is the live kernel's miss/write-back pipeline (MSHR
// coalescing, write-behind, server-side read-ahead); the DES models
// those costs in virtual time instead, so for a simulation run Fill
// stays zero.
type Snapshot struct {
	Cache cache.Stats `json:"cache"`
	Sim   sim.Stats   `json:"sim"`
	Fill  FillStats   `json:"fill"`
}

// FillStats counts the live kernel's fill/write-back pipeline: how misses
// execute, not which block was evicted. The json tags are the canonical
// counter names everywhere they escape the process (the acfcd stats
// reply and /metrics endpoint, benchmark/) — see WriteMetricsLabeled.
type FillStats struct {
	// StoreReads is the number of block reads actually issued to the
	// store. Coalescing, read-ahead joins and write-behind forwarding
	// all push it below the cache's miss count.
	StoreReads int64 `json:"store_reads"`
	// CoalescedMisses counts requests that joined an already in-flight
	// fill for the same block (the MSHR waiter path) instead of issuing
	// their own store read.
	CoalescedMisses int64 `json:"coalesced_misses"`
	// WritebackHits counts fills served straight from a pending
	// write-behind buffer: the block's freshest bytes were still queued
	// for the store, so the fill copied them and skipped the read.
	WritebackHits int64 `json:"writeback_hits"`
	// PrefetchIssued / PrefetchHits count server-side read-ahead: fills
	// issued ahead of a sequential run, and demand accesses that landed
	// on a prefetched block (in flight or completed but untouched).
	PrefetchIssued int64 `json:"prefetch_issued"`
	PrefetchHits   int64 `json:"prefetch_hits"`
	// WritebacksQueued counts dirty victims handed to the asynchronous
	// write-behind queue; WritebackQueueHighWater is the most ever
	// outstanding at once; WritebackStalls counts enqueues that found
	// the queue full and degraded to a synchronous inline write (the
	// backpressure rule); WritebackErrors counts store write failures
	// and ReadErrors failed block fills, whatever the store (surfaced to
	// the session as an io status, never fatal).
	WritebacksQueued        int64 `json:"writebacks_queued"`
	WritebackQueueHighWater int64 `json:"writeback_queue_high_water"`
	WritebackStalls         int64 `json:"writeback_stalls"`
	WritebackErrors         int64 `json:"writeback_errors"`
	ReadErrors              int64 `json:"read_errors"`
	// WireCopyFallbacks counts the times the zero-copy serve path had to
	// copy after all: a write landed on a block whose slot was pinned by
	// in-flight response frames (copy-on-write), or a response outlived
	// its buffer (mid-fill eviction) and was served from a detached copy.
	WireCopyFallbacks int64 `json:"wire_copy_fallbacks"`
	// BatchedFills counts multi-block store reads issued by the fill
	// workers (a run of same-file adjacent fills retired as one vectored
	// call); FillBatchBlocks is the total blocks those batches moved, so
	// FillBatchBlocks/BatchedFills is the mean run length.
	BatchedFills    int64 `json:"batched_fills"`
	FillBatchBlocks int64 `json:"fill_batch_blocks"`
	// WritebackBatches counts multi-block write-behind batches handed to
	// the store as one vectored write.
	WritebackBatches int64 `json:"writeback_batches"`
	// FillQueueHighWater is the deepest the shard's fill queue has ever
	// been: how far the bounded worker pool fell behind the miss stream.
	FillQueueHighWater int64 `json:"fill_queue_high_water"`
	// DiscardedBlocks counts blocks of removed files given back to the
	// store: a removed file's whole extent, blocks 0 to its size, whether
	// or not this kernel wrote them. A discard is not a write-back and
	// moves none of the Writeback* counters above.
	DiscardedBlocks int64 `json:"discarded_blocks"`
}

// Fold folds src into *dst, for any flat all-integer counter struct
// (FillStats, core.ProcStats, one group of a Snapshot): a field whose
// name ends in HighWater takes the larger value, every other field the
// sum. Like writeGroup it reads the rule off the struct, so a counter
// added to the schema is one field and nothing else.
func Fold[T any](dst *T, src T) {
	accumulate(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src))
}

// Accumulate folds o into s, group by group, with Fold's rule.
func (s *Snapshot) Accumulate(o Snapshot) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for g := 0; g < dst.NumField(); g++ {
		accumulate(dst.Field(g), src.Field(g))
	}
}

// accumulate is Fold over two reflected values of one struct type.
func accumulate(dst, src reflect.Value) {
	t := dst.Type()
	for i := 0; i < t.NumField(); i++ {
		d, v := dst.Field(i), src.Field(i).Int()
		if strings.HasSuffix(t.Field(i).Name, "HighWater") {
			v = max(v, d.Int())
		} else {
			v += d.Int()
		}
		d.SetInt(v)
	}
}

// Aggregate folds a set of per-shard snapshots into one total, with the
// same add/max semantics as Accumulate. The sharded acfcd kernel reports
// both views: the aggregate for dashboards that want one number, the
// per-shard breakdown for spotting imbalance.
func Aggregate(shards []Snapshot) Snapshot {
	var total Snapshot
	for _, s := range shards {
		total.Accumulate(s)
	}
	return total
}

// WriteMetrics renders the snapshot as Prometheus-style plaintext lines,
//
//	<prefix>_cache_hits 123
//	<prefix>_sim_handoffs 456
//
// one per counter, named by the structs' json tags. Reflection keeps this
// exposition and the JSON schema a single source of truth.
func (s Snapshot) WriteMetrics(w io.Writer, prefix string) {
	s.WriteMetricsLabeled(w, prefix, "")
}

// WriteMetricsLabeled is WriteMetrics with a constant label set appended
// to every metric name (e.g. `{shard="3"}`), for per-shard sections that
// must stay mechanically derived from the same schema as the totals.
func (s Snapshot) WriteMetricsLabeled(w io.Writer, prefix, labels string) {
	writeGroup(w, prefix+"_cache_", labels, reflect.ValueOf(s.Cache))
	writeGroup(w, prefix+"_sim_", labels, reflect.ValueOf(s.Sim))
	writeGroup(w, prefix+"_fill_", labels, reflect.ValueOf(s.Fill))
}

// writeGroup emits one line per field of a flat all-integer struct.
func writeGroup(w io.Writer, prefix, labels string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name == "" || name == "-" {
			name = strings.ToLower(t.Field(i).Name)
		}
		fmt.Fprintf(w, "%s%s%s %d\n", prefix, name, labels, v.Field(i).Int())
	}
}
