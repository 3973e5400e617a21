package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/server"
)

// statsGolden holds the OpStats body the scripted mix of
// TestStatsSurfacesAgree produced at the commit before the three stats
// surfaces were derived from one per-shard snapshot (PR 22): the wire
// schema did not move with that refactor, byte for byte. After a change
// that is meant to move it, replace the file with the body the failure
// prints.
const statsGolden = "testdata/opstats.golden.json"

// TestStatsSurfacesAgree holds the three stats surfaces — the OpStats
// wire reply, Metrics() and the /metrics plaintext — to one another on a
// 2-shard server after a scripted mix with evictions, manager overrules
// and write-backs: every counter stats.Snapshot has (walked by
// reflection, totals and per shard) and every session's totals, its
// manager's decisions, mistakes and revocation included, carry the same
// value on all three. One session's raw OpStats body is also
// compared with statsGolden.
func TestStatsSurfacesAgree(t *testing.T) {
	const shards = 2
	srv, addr, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{CacheBytes: 32 * core.BlockSize},
		Shards: shards,
	})

	// Session A, a manager: four small files it wants kept, four scans
	// through them (the kernel's LRU candidate is a kept block, A names a
	// scan block instead: overrules), then a written file twice a shard's
	// size (dirty victims: write-backs, inline since write-behind is off).
	a := dial()
	defer a.Close()
	if err := a.Control(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f, err := a.Create(fmt.Sprintf("keep%d", i), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetPriority(f.ID, 1); err != nil {
			t.Fatal(err)
		}
		for b := int32(0); b < 4; b++ {
			if _, err := a.ReadNoData(f.ID, b, 0, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		f, err := a.Create(fmt.Sprintf("scan%d", i), 0, 16)
		if err != nil {
			t.Fatal(err)
		}
		for b := int32(0); b < 16; b++ {
			if _, err := a.ReadNoData(f.ID, b, 0, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, err := a.Create("written", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, core.BlockSize)
	for b := int32(0); b < 32; b++ {
		if _, err := a.Write(w.ID, b, 0, block); err != nil {
			t.Fatal(err)
		}
	}

	// Session B, on a bare connection so its stats body can be compared
	// as bytes: it re-reads what A kept.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	var reqID uint32
	call := func(op uint8, body []byte) []byte {
		t.Helper()
		reqID++
		if err := server.WriteFrame(raw, reqID, op, body); err != nil {
			t.Fatal(err)
		}
		id, st, rb, err := readFrame(br)
		if err != nil || id != reqID || st != server.StatusOK {
			t.Fatalf("op %d: id %d status %d err %v: %s", op, id, st, err, rb)
		}
		return rb
	}
	for i := 0; i < 4; i++ {
		f, ok := server.ParseFileReply(call(server.OpOpen, []byte(fmt.Sprintf("keep%d", i))))
		if !ok {
			t.Fatalf("open keep%d: malformed reply", i)
		}
		for b := int32(0); b < 4; b++ {
			call(server.OpRead, server.ReadReq{File: f.ID, Blk: b, Size: 8, Flags: server.ReadNoData}.Append(nil))
		}
	}

	// Quiesced: the snapshots below are taken with no traffic between.
	bodyB := call(server.OpStats, nil)
	var srB server.StatsReply
	if err := json.Unmarshal(bodyB, &srB); err != nil {
		t.Fatal(err)
	}
	srA, err := a.Stats()
	if err != nil {
		t.Fatal(err)
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics() not ok on a live server")
	}
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	lines := parseMetrics(t, rec.Body.String())

	k := srA.Kernel
	if k.Cache.Evictions == 0 || k.Cache.Overrules == 0 || srA.Session.WriteBacks == 0 || srB.Session.Hits == 0 {
		t.Fatalf("the mix exercised too little: %+v, A %+v, B %+v", k.Cache, srA.Session, srB.Session)
	}

	// Kernel counters: wire (both sessions' replies) == Metrics, and the
	// wire's values are what /metrics prints, totals and per shard.
	if srA.Kernel != m.Kernel || srB.Kernel != m.Kernel {
		t.Errorf("kernel totals: wire A %+v\nwire B %+v\nMetrics %+v", srA.Kernel, srB.Kernel, m.Kernel)
	}
	checkSnapshotLines(t, lines, "acfcd", "", srA.Kernel)
	if len(srA.PerShard) != shards || len(m.Shards) != shards {
		t.Fatalf("per-shard sections: wire %d, Metrics %d, want %d", len(srA.PerShard), len(m.Shards), shards)
	}
	if srA.Alloc != m.Alloc {
		t.Errorf("alloc: wire %q, Metrics %q", srA.Alloc, m.Alloc)
	}
	for i, sm := range m.Shards {
		if srA.PerShard[i] != sm.Kernel {
			t.Errorf("shard %d: wire %+v\nMetrics %+v", i, srA.PerShard[i], sm.Kernel)
		}
		checkSnapshotLines(t, lines, "acfcd_shard", fmt.Sprintf(`{shard="%d"}`, i), srA.PerShard[i])
	}

	// Per-session totals: each session's own wire reply, its entry in
	// Metrics (found by address) and its /metrics lines.
	if m.SessionsActive != 2 || len(m.Sessions) != 2 {
		t.Fatalf("Metrics lists %d sessions (%d active), want 2", len(m.Sessions), m.SessionsActive)
	}
	if srA.Control.Decisions == 0 || srA.Control.Decisions != k.Cache.Overrules || srB.Control != (cache.OwnerStats{}) {
		t.Errorf("decisions: A %+v, B %+v; want A's the kernel's %d overrules, B none", srA.Control, srB.Control, k.Cache.Overrules)
	}
	for _, si := range m.Sessions {
		want, ctl, owner := srA.Session, srA.Control, 0 // A registered first, in every shard
		if si.Name == raw.LocalAddr().String() {
			want, ctl, owner = srB.Session, srB.Control, 1
		}
		if si.Stats != want || si.Control != ctl || si.Owner != owner {
			t.Errorf("session %s: Metrics owner %d %+v %+v, want shard 0's id %d and the wire's %+v %+v", si.Name, si.Owner, si.Stats, si.Control, owner, want, ctl)
		}
		revoked := int64(0)
		if ctl.Revoked {
			revoked = 1
		}
		l := fmt.Sprintf(`{owner="%d",addr=%q}`, si.Owner, si.Name)
		for name, v := range map[string]int64{
			"reads": want.ReadCalls, "writes": want.WriteCalls, "hits": want.Hits,
			"misses": want.Misses, "block_ios": want.BlockIOs(),
			"decisions": ctl.Decisions, "mistakes": ctl.Mistakes, "revoked": revoked,
		} {
			if got, present := lines["acfcd_session_"+name+l]; !present || got != v {
				t.Errorf("acfcd_session_%s%s = %d (present %v), wire %d", name, l, got, present, v)
			}
		}
	}

	golden, err := os.ReadFile(statsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bodyB, golden) {
		t.Errorf("OpStats body drifted from %s:\n got %s\nwant %s", statsGolden, bodyB, golden)
	}
}
