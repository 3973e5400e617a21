package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/stats"
)

// TestShardedRoundTrip drives a 3-shard server (deliberately not a
// divisor of the cache size, so the shard slices are uneven) through the
// whole file lifecycle and checks that file affinity holds: every block
// of a file lands in the shard its wire id encodes, re-reads hit, and
// data written before a session close is intact for the next session.
func TestShardedRoundTrip(t *testing.T) {
	const shards = 3
	srv, _, dial := startServer(t, server.Config{Shards: shards})
	if got := srv.Shards(); got != shards {
		t.Fatalf("Shards() = %d, want %d", got, shards)
	}

	c := dial()
	defer c.Close()

	// Enough files that the name hash cannot collapse them all into one
	// shard.
	const nfiles = 12
	used := map[int]bool{}
	var ids []client.File
	for i := 0; i < nfiles; i++ {
		f, err := c.Create(fmt.Sprintf("file%d", i), i%2, 6)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f)
		used[int(f.ID)%shards] = true
		for b := int32(0); b < 6; b++ {
			if _, err := c.Write(f.ID, b, 0, []byte{byte(i), byte(b)}); err != nil {
				t.Fatalf("file %d block %d: %v", i, b, err)
			}
		}
	}
	if len(used) < 2 {
		t.Errorf("all %d files hashed to one shard; want spread, got %v", nfiles, used)
	}

	// Open must return the same wire id (same shard) as Create did.
	for i, f := range ids {
		g, err := c.Open(fmt.Sprintf("file%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if g.ID != f.ID {
			t.Fatalf("file%d: open id %d != create id %d", i, g.ID, f.ID)
		}
	}

	// Re-reads hit (the cache is large enough for all blocks), and the
	// data survived the shard-local write path.
	for i, f := range ids {
		for b := int32(0); b < 6; b++ {
			data, hit, err := c.Read(f.ID, b, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Errorf("file%d block %d: miss on re-read", i, b)
			}
			if data[0] != byte(i) || data[1] != byte(b) {
				t.Errorf("file%d block %d: got %v", i, b, data[:2])
			}
		}
	}

	// Stats aggregates over shards and carries the per-shard breakdown.
	sr, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.PerShard) != shards {
		t.Fatalf("PerShard has %d entries, want %d", len(sr.PerShard), shards)
	}
	if got, want := sr.Kernel, stats.Aggregate(sr.PerShard); got != want {
		t.Errorf("Kernel != Aggregate(PerShard):\n got %+v\nwant %+v", got, want)
	}
	if sr.Session.ReadCalls != nfiles*6 || sr.Session.WriteCalls != nfiles*6 {
		t.Errorf("session totals: %d reads / %d writes, want %d each",
			sr.Session.ReadCalls, sr.Session.WriteCalls, nfiles*6)
	}
	if sr.Kernel.Cache.Hits == 0 || sr.Kernel.Cache.Misses == 0 {
		t.Errorf("aggregated kernel saw no traffic: %+v", sr.Kernel.Cache)
	}
}

// TestLiveFilesUnderClientIDs: a file has one id from the wire to the
// store. A 2-shard server's namespace, read after Shutdown, lists every
// file under the id its create returned; that id mod 2 is the shard its
// name hashes to (FNV-1a), and the store keeps its blocks under it.
func TestLiveFilesUnderClientIDs(t *testing.T) {
	mem := disk.NewMemStore()
	srv, addr, served := lifecycleServer(t, mem, core.MB(1))
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]int32{}
	for i := range 12 {
		name := fmt.Sprint("file", i)
		f, err := c.Create(name, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(f.ID, 1, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids[name] = int32(f.ID)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	if err := srv.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	files := srv.LiveFiles()
	if len(files) != len(ids) {
		t.Errorf("LiveFiles lists %d files, want %d", len(files), len(ids))
	}
	shards := map[uint32]bool{}
	for _, f := range files {
		h := fnv.New32a()
		h.Write([]byte(f.Name()))
		shard := h.Sum32() % 2
		shards[shard] = true
		switch id := int32(f.ID()); {
		case id != ids[f.Name()]:
			t.Errorf("%s: listed under %d, created as %d", f.Name(), id, ids[f.Name()])
		case uint32(id)%2 != shard:
			t.Errorf("%s: id %d, but its name hashes to shard %d", f.Name(), id, shard)
		case mem.BlocksOf(id) != 1:
			t.Errorf("%s: the store holds %d blocks under id %d, want 1", f.Name(), mem.BlocksOf(id), id)
		}
	}
	if len(shards) != 2 {
		t.Errorf("every name hashed to one shard: %v", shards)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleShardOmitsPerShard pins the wire-compatibility guarantee: a
// 1-shard server's stats response must not grow a per_shard section, so
// it is byte-identical to the unsharded server's.
func TestSingleShardOmitsPerShard(t *testing.T) {
	_, _, dial := startServer(t, server.Config{Shards: 1})
	c := dial()
	defer c.Close()
	if _, err := c.Create("f", 0, 2); err != nil {
		t.Fatal(err)
	}
	sr, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sr.PerShard != nil {
		t.Errorf("1-shard server emitted per_shard: %+v", sr.PerShard)
	}
}

// TestClientTypedErrors checks the sentinel mapping: statuses the caller
// branches on match via errors.Is, everything else stays a plain
// *StatusError reachable through errors.As.
func TestClientTypedErrors(t *testing.T) {
	_, _, dial := startServer(t, server.Config{Shards: 2})
	c := dial()
	defer c.Close()

	_, err := c.Open("no-such-file")
	if err == nil {
		t.Fatal("open of missing file succeeded")
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusNotFound {
		t.Errorf("open: err = %v, want StatusNotFound", err)
	}
	if errors.Is(err, client.ErrRefused) || errors.Is(err, client.ErrRevoked) || errors.Is(err, client.ErrBadFrame) {
		t.Errorf("not_found matched a sentinel it should not: %v", err)
	}

	// fbehavior without EnableControl: no_control, again not a sentinel.
	f, err := c.Create("tf", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = c.SetPriority(f.ID, 1)
	if !errors.As(err, &se) || se.Status != server.StatusNoControl {
		t.Errorf("set_priority without control: err = %v, want StatusNoControl", err)
	}
	if errors.Is(err, client.ErrRefused) {
		t.Errorf("no_control matched ErrRefused: %v", err)
	}
}

// TestMetricsDrift is the three-surface consistency gate: the /metrics
// plaintext, the Metrics struct, and the stats wire reply (the schema
// benchmark/ reads out of Metrics().Kernel) must all derive from
// the one stats.Snapshot, field for field, per-shard sections included.
// The expected metric names are rebuilt here by independent reflection
// over the json tags, so a renamed field or a hand-maintained exposition
// line cannot drift silently.
func TestMetricsDrift(t *testing.T) {
	const shards = 2
	srv, _, dial := startServer(t, server.Config{Shards: shards})
	c := dial()
	defer c.Close()

	// Traffic: misses, hits, and enough files to touch both shards.
	for i := 0; i < 8; i++ {
		f, err := c.Create(fmt.Sprintf("m%d", i), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		for b := int32(0); b < 4; b++ {
			if _, _, err := c.Read(f.ID, b, 0, 8); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Read(f.ID, b, 0, 8); err != nil {
				t.Fatal(err)
			}
		}
	}

	// And files that reach the store and are removed, so that the newest
	// counter of the schema, fill.discarded_blocks, is non-zero in both
	// shards on all three surfaces (write-behind is off here: the discards
	// have run when the removes are answered).
	block := make([]byte, core.BlockSize)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("gone%d", i)
		f, err := c.Create(name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for b := int32(0); b < 96; b++ { // a shard caches 64
			if _, err := c.Write(f.ID, b, 0, block); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Remove(name); err != nil {
			t.Fatal(err)
		}
	}

	// Quiesce: all three snapshots taken back to back with no traffic in
	// between must agree exactly.
	sr, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics() not ok on a live server")
	}
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	// Surface 1 vs 2: wire stats reply == in-process Metrics.
	if sr.Kernel != m.Kernel {
		t.Errorf("stats reply kernel != Metrics kernel:\n got %+v\nwant %+v", sr.Kernel, m.Kernel)
	}
	if len(sr.PerShard) != shards || len(m.Shards) != shards {
		t.Fatalf("per-shard sections: wire %d, metrics %d, want %d", len(sr.PerShard), len(m.Shards), shards)
	}
	for i := range m.Shards {
		if sr.PerShard[i] != m.Shards[i].Kernel {
			t.Errorf("shard %d: wire snapshot != metrics snapshot", i)
		}
	}
	if agg := stats.Aggregate(sr.PerShard); agg != m.Kernel {
		t.Errorf("aggregate of shards != kernel total:\n got %+v\nwant %+v", agg, m.Kernel)
	}

	// Surface 3: every field of the schema appears in the plaintext with
	// the value the struct holds — totals and each shard's section.
	lines := parseMetrics(t, body)
	checkSnapshotLines(t, lines, "acfcd", "", m.Kernel)
	for i, sm := range m.Shards {
		if sm.Kernel.Fill.DiscardedBlocks == 0 {
			t.Errorf("shard %d discarded no block: the new counter is not exercised", i)
		}
	}
	if got := lines["acfcd_fill_discarded_blocks"]; got == 0 || got != sr.Kernel.Fill.DiscardedBlocks {
		t.Errorf("discarded_blocks: plaintext %d, wire %d, want equal and non-zero", got, sr.Kernel.Fill.DiscardedBlocks)
	}
	for i, sm := range m.Shards {
		checkSnapshotLines(t, lines, "acfcd_shard", fmt.Sprintf(`{shard="%d"}`, i), sm.Kernel)
	}
	for i, sm := range m.Shards {
		l := fmt.Sprintf(`{shard="%d"}`, i)
		if got := lines["acfcd_shard_requests_total"+l]; got != sm.Requests {
			t.Errorf("shard %d requests: plaintext %d, struct %d", i, got, sm.Requests)
		}
		if got := lines["acfcd_shard_cached_blocks"+l]; got != int64(sm.CachedBlocks) {
			t.Errorf("shard %d cached_blocks: plaintext %d, struct %d", i, got, sm.CachedBlocks)
		}
		if got := lines["acfcd_shard_writebacks_inflight"+l]; got != int64(sm.WritebacksInflight) {
			t.Errorf("shard %d writebacks_inflight: plaintext %d, struct %d", i, got, sm.WritebacksInflight)
		}
		if got := lines["acfcd_shard_data_slots"+l]; got != int64(sm.DataSlots) || sm.DataSlots < sm.CachedBlocks {
			t.Errorf("shard %d data_slots: plaintext %d, struct %d, want equal and at least its %d cached blocks", i, got, sm.DataSlots, sm.CachedBlocks)
		}
	}
	if got := lines["acfcd_data_slots"]; got != int64(m.DataSlots) || m.DataSlots == 0 {
		t.Errorf("data_slots: plaintext %d, struct %d, want equal and non-zero", got, m.DataSlots)
	}
	if got := lines["acfcd_writebacks_inflight"]; got != int64(m.WritebacksInflight) {
		t.Errorf("writebacks_inflight: plaintext %d, struct %d", got, m.WritebacksInflight)
	}

	// The allocation policy, one for the daemon: the wire reply, the
	// Metrics struct and the plaintext must agree.
	if sr.Alloc != m.Alloc || m.Alloc != cache.LRUSP.String() {
		t.Errorf("alloc: wire %q, metrics %q, want %q", sr.Alloc, m.Alloc, cache.LRUSP)
	}
	if pl := fmt.Sprintf(`{policy=%q}`, m.Alloc); lines["acfcd_alloc_policy"+pl] != 1 {
		t.Errorf("plaintext policy line acfcd_alloc_policy%s = %d, want 1", pl, lines["acfcd_alloc_policy"+pl])
	}
}

// checkSnapshotLines asserts one rendered snapshot section against the
// struct, deriving the expected metric names from the json tags — the
// same single source WriteMetricsLabeled uses, reimplemented
// independently so the two cannot share a bug silently.
func checkSnapshotLines(t *testing.T, lines map[string]int64, prefix, label string, snap stats.Snapshot) {
	t.Helper()
	groups := []struct {
		sub string
		v   reflect.Value
	}{
		{"cache", reflect.ValueOf(snap.Cache)},
		{"sim", reflect.ValueOf(snap.Sim)},
		{"fill", reflect.ValueOf(snap.Fill)},
	}
	for _, g := range groups {
		tp := g.v.Type()
		for i := 0; i < tp.NumField(); i++ {
			tag, _, _ := strings.Cut(tp.Field(i).Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				tag = strings.ToLower(tp.Field(i).Name)
			}
			name := prefix + "_" + g.sub + "_" + tag + label
			got, present := lines[name]
			if !present {
				t.Errorf("metric %s missing from /metrics", name)
				continue
			}
			if want := g.v.Field(i).Int(); got != want {
				t.Errorf("metric %s = %d, struct field %s = %d", name, got, tp.Field(i).Name, want)
			}
		}
	}
}

// parseMetrics splits Prometheus plaintext into name{labels} -> value.
func parseMetrics(t *testing.T, body string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		var v int64
		if _, err := fmt.Sscanf(val, "%d", &v); err != nil {
			t.Fatalf("bad value in metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}
