package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
)

// TestAllocSoak runs every registered allocation policy under
// concurrency: for each one, a fresh server with that Kernel.Alloc, at 1
// and 4 shards, takes concurrent sessions hammering a deliberately tiny
// cache with verified reads and writes. Each session reconnects every
// ten rounds, so the per-session invariant audit (startServer forces
// CheckInvariants) re-verifies every shard's kernel while traffic
// continues; the shared file's bytes must survive the whole run. Run
// under -race via `make check`.
func TestAllocSoak(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, alloc := range cache.AllocNames() {
				t.Run(alloc.String(), func(t *testing.T) {
					t.Parallel()
					allocSoak(t, alloc, shards)
				})
			}
		})
	}
}

func allocSoak(t *testing.T, alloc cache.Alloc, shards int) {
	const (
		sessions   = 4
		fileBlocks = 24
		rounds     = 10
	)
	cfg := server.Config{
		Kernel: core.LiveConfig{
			CacheBytes: 32 * core.BlockSize, // tiny: the policy picks a victim on most misses
			Alloc:      alloc,
			Store:      &sleepStore{Store: disk.NewMemStore(), readDelay: 100 * time.Microsecond},
		},
		Shards:      shards,
		MaxInflight: 8,
	}
	_, addr, dial := startServer(t, cfg)

	setup := dial()
	shared, err := setup.Create("shared", 0, fileBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for b := int32(0); b < fileBlocks; b++ {
		if _, err := setup.Write(shared.ID, b, 0, []byte{byte(b)}); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	errc := make(chan error, sessions)
	var workers sync.WaitGroup
	for i := 0; i < sessions; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			if err := soakSession(addr, i, rounds, fileBlocks); err != nil {
				errc <- fmt.Errorf("session %d: %w", i, err)
			}
		}(i)
	}
	workers.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Zero data loss: every shared byte survived the run.
	final := dial()
	defer final.Close()
	for b := int32(0); b < fileBlocks; b++ {
		data, _, err := final.Read(shared.ID, b, 0, 1)
		if err != nil {
			t.Fatalf("shared block %d: %v", b, err)
		}
		if data[0] != byte(b) {
			t.Fatalf("shared block %d corrupted under %s: got %d", b, alloc, data[0])
		}
	}
	sr, err := final.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Alloc != alloc.String() || sr.Kernel.Cache.Evictions == 0 {
		t.Errorf("stats reply: alloc %q (want %q), %d evictions (want some)", sr.Alloc, alloc, sr.Kernel.Cache.Evictions)
	}
}
