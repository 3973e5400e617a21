package server_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/server"
	"repro/internal/server/client"
)

// TestOracleWireReplayMatchesSimulation is the correctness oracle of the
// server subsystem: record a deterministic workload in the DES (every
// block access and every control call, in issue order), replay the
// transcript through acfcd over a real socket, and require the hit/miss
// and I/O accounting to come out byte-identical.
//
// The parity argument: with read-ahead off, a single app and a serial
// replay, replacement is a pure function of the request sequence — the
// wire adds latency but the kernel loop sees the exact same order of
// operations the simulated kernel saw. The kernel's clock plays no part:
// recency is the global list's order, a buffer's ValidAt is only ever 0
// or IOPending, and every flush outside tests passes MaxTime, so each
// replay runs under the logical tick and under wall time alike. Counters
// the comparison must exclude, and why:
//
//   - WriteBacks: the DES flushes dirty blocks on the 30-second update
//     daemon; the live kernel flushes synchronously at eviction. Same
//     blocks, different moments.
//   - Opens / MetadataReads: Open calls are not traced (replay resolves
//     files through Create events instead).
//   - FbehaviorCalls: Get* calls are untraced (they change nothing), so
//     the replayed call count differs from the workload's.
//
// The revoking case is the same parity with revocation on in both
// kernels: a foolish read300's manager loses control once, mid-run.
func TestOracleWireReplayMatchesSimulation(t *testing.T) {
	cases := []struct {
		app     string // an expt.ParseApp spec
		cacheMB float64
		alloc   cache.Alloc
		revoke  bool
	}{
		{"cs1:smart", 2, cache.LRUSP, false}, // read-only scans, fbehavior-heavy
		{"cs1:oblivious", 2, cache.GlobalLRU, false},
		{"sort:smart", 2, cache.LRUSP, false}, // writes, grows and removes files
		{"read300:foolish", 6.4, cache.LRUSP, true},
	}
	for _, tc := range cases {
		tc := tc
		as, err := expt.ParseApp(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		name := as.Name + "/" + as.Mode.String()
		if tc.revoke {
			name += "+revoke"
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && as.Name == "sort" {
				t.Skip("sort transcript is large; skipped in -short")
			}
			rec := expt.Record(expt.RunSpec{
				Apps:    []expt.AppSpec{as},
				CacheMB: tc.cacheMB,
				Alloc:   tc.alloc,
				Revoke:  tc.revoke,
				Opts:    expt.Options{ReadAheadOff: true},
			})
			if len(rec.Events) == 0 {
				t.Fatal("recording captured no events")
			}
			if got, want := rec.Result.CacheStats.Revocations, map[bool]int64{true: 1}[tc.revoke]; got != want {
				t.Fatalf("the simulation revoked %d times, want %d", got, want)
			}

			for _, wall := range []bool{false, true} {
				t.Run(map[bool]string{false: "tick", true: "wall"}[wall], func(t *testing.T) {
					// Shards pinned to 1: the oracle's parity argument
					// needs the whole cache to be one replacement domain,
					// exactly the simulated kernel. (This is also the gate
					// that a 1-shard server is the old server, bit for bit.)
					_, _, dial := startServer(t, server.Config{
						Kernel: core.LiveConfig{
							CacheBytes: core.MB(tc.cacheMB),
							Alloc:      tc.alloc,
							Revoke:     tc.revoke,
							WallClock:  wall,
						},
						Shards: 1,
					})
					c := dial()
					defer c.Close()

					// Serially through one session, any wire or status
					// error fatal: the translation is client.Replay's, as
					// in acload.
					rp := client.Replay{S: c, NoData: true}
					for i, ev := range rec.Events {
						var err error
						if ev.IsCtl {
							err = rp.Ctl(*ev.Ctl.CtlEvent)
						} else {
							_, err = rp.Access(ev.Access)
						}
						if err != nil {
							t.Fatalf("event %d (%+v): %v", i, ev, err)
						}
					}

					sr, err := c.Stats()
					if err != nil {
						t.Fatal(err)
					}
					want := rec.Result.PerApp[0].Stats
					got := sr.Session
					type subset struct {
						ReadCalls, WriteCalls, Hits, Misses, DemandReads, Prefetches int64
					}
					wantSub := subset{want.ReadCalls, want.WriteCalls, want.Hits, want.Misses, want.DemandReads, want.Prefetches}
					gotSub := subset{got.ReadCalls, got.WriteCalls, got.Hits, got.Misses, got.DemandReads, got.Prefetches}
					if gotSub != wantSub {
						t.Errorf("session stats diverge from simulation:\n got %+v\nwant %+v", gotSub, wantSub)
					}
					if sr.Kernel.Cache != rec.Result.CacheStats {
						t.Errorf("cache stats diverge from simulation:\n got %+v\nwant %+v", sr.Kernel.Cache, rec.Result.CacheStats)
					}
				})
			}
		})
	}
}
