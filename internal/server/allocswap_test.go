package server_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/server/client"
)

// TestSetAllocWire pins the set_alloc/get_alloc wire contract: canonical
// name echo, broadcast to every shard, the distinct unknown_policy
// status (errors.Is-able as client.ErrUnknownPolicy), and the
// alloc_swaps counter on the stats surface.
func TestSetAllocWire(t *testing.T) {
	const shards = 2
	_, _, dial := startServer(t, server.Config{Shards: shards})
	c := dial()
	defer c.Close()

	if name, err := c.GetAlloc(); err != nil || name != "lru-sp" {
		t.Fatalf("GetAlloc = %q, %v; want lru-sp (startServer default)", name, err)
	}
	if err := c.SetAlloc("arc"); err != nil {
		t.Fatalf("SetAlloc(arc): %v", err)
	}
	if name, _ := c.GetAlloc(); name != "arc" {
		t.Fatalf("GetAlloc after swap = %q, want arc", name)
	}

	// The canonical name comes back from the Fbehavior surface too.
	res, err := c.Fbehavior(client.FbSetAlloc, client.FbArgs{Alloc: "lru-s"})
	if err != nil || res.Alloc != "lru-s" {
		t.Fatalf("FbSetAlloc = %+v, %v", res, err)
	}

	// Unknown names are refused with the distinct status, shards intact.
	err = c.SetAlloc("no-such-policy")
	if !errors.Is(err, client.ErrUnknownPolicy) {
		t.Fatalf("SetAlloc(unknown) = %v, want ErrUnknownPolicy", err)
	}
	if name, _ := c.GetAlloc(); name != "lru-s" {
		t.Fatalf("failed swap moved the policy to %q", name)
	}

	sr, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Two successful broadcasts, each swapping every shard once.
	if got := sr.Kernel.Cache.AllocSwaps; got != 2*shards {
		t.Errorf("alloc_swaps = %d, want %d", got, 2*shards)
	}
	if len(sr.Alloc) != shards {
		t.Fatalf("alloc sections = %d, want %d", len(sr.Alloc), shards)
	}
	for i, as := range sr.Alloc {
		if as.Policy != "lru-s" {
			t.Errorf("shard %d policy = %q, want lru-s", i, as.Policy)
		}
	}

	// A same-name swap is a no-op in every shard.
	if err := c.SetAlloc("lru-s"); err != nil {
		t.Fatal(err)
	}
	sr, _ = c.Stats()
	if got := sr.Kernel.Cache.AllocSwaps; got != 2*shards {
		t.Errorf("alloc_swaps after no-op = %d, want %d", got, 2*shards)
	}
}

// TestAllocFlipSoak is the live-swap race stress: concurrent sessions
// hammer a deliberately tiny cache with verified reads and writes while
// a flipper cycles the allocation policy through every registered
// entry, mid-run, across all shards. The flipper reconnects around
// every flip, so the per-session invariant audit (startServer forces
// CheckInvariants) re-verifies every shard's kernel after each
// migration while traffic continues; the shared file's bytes must
// survive the whole run — a policy swap may drop ghosts and
// placeholders but never data. Run under -race via `make check`.
func TestAllocFlipSoak(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			allocFlipSoak(t, shards)
		})
	}
}

func allocFlipSoak(t *testing.T, shards int) {
	const (
		sessions   = 8
		fileBlocks = 24
	)
	rounds := 60
	if testing.Short() {
		rounds = 12
	}

	cfg := server.Config{
		Kernel: core.LiveConfig{
			CacheBytes: 64 * core.BlockSize, // tiny: every flip migrates a full cache under eviction pressure
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

	errc := make(chan error, sessions+1)
	stop := make(chan struct{})

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

	// The flipper: cycle every registered policy for as long as the
	// workers run. Each hop uses a fresh connection, so every shard runs
	// its invariant audit (session close) right after the migration.
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		names := cache.AllocNames()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c, err := client.Dial("tcp", addr)
			if err != nil {
				errc <- fmt.Errorf("flipper dial: %w", err)
				return
			}
			want := names[i%len(names)].String()
			if err := c.SetAlloc(want); err != nil {
				c.Close()
				errc <- fmt.Errorf("flip %d to %s: %w", i, want, err)
				return
			}
			if got, err := c.GetAlloc(); err != nil || got != want {
				c.Close()
				errc <- fmt.Errorf("flip %d: GetAlloc = %q, %v; want %q", i, got, err, want)
				return
			}
			c.Close()
		}
	}()

	workers.Wait()
	close(stop)
	flipper.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Zero data loss: every shared byte survived every migration.
	final := dial()
	defer final.Close()
	for b := int32(0); b < fileBlocks; b++ {
		data, _, err := final.Read(shared.ID, b, 0, 1)
		if err != nil {
			t.Fatalf("shared block %d after flip soak: %v", b, err)
		}
		if data[0] != byte(b) {
			t.Fatalf("shared block %d corrupted across policy flips: got %d", b, data[0])
		}
	}
	sr, err := final.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Kernel.Cache.AllocSwaps == 0 {
		t.Error("flip soak recorded zero alloc swaps; the flipper never ran")
	}
}
