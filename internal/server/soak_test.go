package server_test

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/acm"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/server/client"
)

// sleepStore delays every block read so fills stay genuinely in flight
// while sessions churn — the revoke-on-disconnect path must cope with
// owners that vanish between StartFill and CompleteFill — and every
// write, so the write-behind queue genuinely backs up.
type sleepStore struct {
	disk.Store
	readDelay  time.Duration
	writeDelay time.Duration
}

func (s *sleepStore) ReadBlock(file, blk int32, dst []byte) error {
	time.Sleep(s.readDelay)
	return s.Store.ReadBlock(file, blk, dst)
}

func (s *sleepStore) WriteBlock(file, blk int32, src []byte) error {
	time.Sleep(s.writeDelay)
	return s.Store.WriteBlock(file, blk, src)
}

// TestSoakConcurrentSessions is the subsystem's race stress: a deliberately
// tiny cache, slow fills, and 16+ concurrent sessions mixing reads, writes
// and fbehavior calls on private and shared files while other connections
// pipeline requests and disconnect abruptly mid-I/O. Invariant checks run
// after every session close (startServer forces CheckInvariants), so each
// revoke is audited while the rest of the fleet keeps hammering the cache.
// Run under -race via `make check`. Every session close disowns its
// blocks in place; the sweep runs at 1 shard and at 4, so every
// revoke/transfer path is audited per replacement domain: with
// CheckInvariants forced by startServer, each session close re-verifies
// the closing shard's kernel while the other shards keep serving. Each
// shard count runs with the fill pipeline off and on (write-behind on a
// slow-write store plus read-ahead): mid-fill disconnects then race
// queued write-backs, prefetch fills, and the drain/retire barrier too.
func TestSoakConcurrentSessions(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, pipelined := range []bool{false, true} {
			mode := "sync"
			if pipelined {
				mode = "pipelined"
			}
			t.Run(fmt.Sprintf("disown/shards=%d/%s", shards, mode), func(t *testing.T) {
				soak(t, shards, pipelined)
			})
		}
	}
}

func soak(t *testing.T, shards int, pipelined bool) {
	const (
		sessions   = 16
		saboteurs  = 4 // extra raw connections that hang up mid-pipeline
		fileBlocks = 24
	)
	rounds := 60
	if testing.Short() {
		rounds = 12
	}

	cfg := server.Config{
		Kernel: core.LiveConfig{
			CacheBytes: 64 * core.BlockSize, // tiny: constant eviction pressure
			Store:      &sleepStore{Store: disk.NewMemStore(), readDelay: 100 * time.Microsecond},
		},
		Shards:      shards,
		MaxInflight: 8,
	}
	if pipelined {
		// A deliberately shallow queue over a slow-write store: write-backs
		// stall (the backpressure path), conflicts queue past the bound,
		// and fills forward from pending write-backs, all under the same
		// churn.
		cfg.WritebackDepth = 2
		cfg.Kernel.ReadAhead = true
		cfg.Kernel.ReadAheadDepth = 2
		cfg.Kernel.Store = &sleepStore{
			Store:      disk.NewMemStore(),
			readDelay:  100 * time.Microsecond,
			writeDelay: 200 * time.Microsecond,
		}
	}
	_, addr, dial := startServer(t, cfg)

	// A shared file every session reads, so disconnects exercise the
	// transfer path on blocks other owners still want.
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

	var wg sync.WaitGroup
	errc := make(chan error, sessions+saboteurs)

	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := soakSession(addr, i, rounds, fileBlocks); err != nil {
				errc <- fmt.Errorf("session %d: %w", i, err)
			}
		}(i)
	}
	for i := 0; i < saboteurs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds/4; r++ {
				if err := sabotage(addr, i, r); err != nil {
					errc <- fmt.Errorf("saboteur %d: %w", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The shared data must have survived every revoke, in cache or on
	// disk, wherever eviction moved it.
	final := dial()
	defer final.Close()
	for b := int32(0); b < fileBlocks; b++ {
		data, _, err := final.Read(shared.ID, b, 0, 1)
		if err != nil {
			t.Fatalf("shared block %d after soak: %v", b, err)
		}
		if data[0] != byte(b) {
			t.Fatalf("shared block %d corrupted: got %d", b, data[0])
		}
	}
}

// soakSession runs one full-lifecycle client: create a private file,
// interleave reads and writes on it and the shared file, drive the
// fbehavior surface, and reconnect periodically so owner release runs
// many times per test under full concurrency.
func soakSession(addr string, id, rounds, fileBlocks int) error {
	var c *client.Conn
	var priv, shared client.File
	connect := func() error {
		var err error
		if c, err = client.Dial("tcp", addr); err != nil {
			return err
		}
		if shared, err = c.Open("shared"); err != nil {
			return err
		}
		name := fmt.Sprintf("priv%d", id)
		if priv, err = c.Open(name); err != nil {
			if priv, err = c.Create(name, id%2, fileBlocks); err != nil {
				return err
			}
		}
		if err := c.Control(true); err != nil {
			return err
		}
		if err := c.SetPriority(priv.ID, 1+id%3); err != nil {
			return err
		}
		return c.SetPolicy(1+id%3, acm.MRU)
	}
	if err := connect(); err != nil {
		return err
	}
	defer func() { c.Close() }()

	for r := 0; r < rounds; r++ {
		b := int32((r + id) % fileBlocks)
		if _, err := c.Write(priv.ID, b, 0, []byte{byte(id), byte(r)}); err != nil {
			return fmt.Errorf("round %d write: %w", r, err)
		}
		data, _, err := c.Read(priv.ID, b, 0, 2)
		if err != nil {
			return fmt.Errorf("round %d read: %w", r, err)
		}
		if data[0] != byte(id) || data[1] != byte(r) {
			return fmt.Errorf("round %d: private data corrupted: %v", r, data)
		}
		if _, err := c.ReadNoData(shared.ID, b, 0, 1); err != nil {
			return fmt.Errorf("round %d shared read: %w", r, err)
		}
		if r%5 == 4 {
			// Rewrite the shared block with its own value: harmless to the
			// final content check, but when another session's zero-copy
			// response frame still pins the block's slot this forces the
			// copy-on-write path under full concurrency.
			if _, err := c.Write(shared.ID, b, 0, []byte{byte(b)}); err != nil {
				return fmt.Errorf("round %d shared write: %w", r, err)
			}
		}
		if err := c.SetTempPri(shared.ID, b, b+4, 0); err != nil {
			return fmt.Errorf("round %d settemppri: %w", r, err)
		}
		if r%10 == 9 {
			// Cycle the session: release this owner (with blocks cached
			// and possibly dirty) and come back as a fresh one.
			c.Close()
			if err := connect(); err != nil {
				return fmt.Errorf("round %d reconnect: %w", r, err)
			}
		}
	}
	return nil
}

// sabotage opens a raw connection, pipelines a burst of slow reads, and
// slams the connection shut without reading a single response — the
// worst-behaved client the revoke path must absorb while fills for its
// session are still in flight. Even rounds pipeline cold misses on a
// private file (mid-fill disconnect); odd rounds pipeline full-data
// reads of the shared file and hang up with zero-copy response frames
// pinning slots that concurrent writers and the tiny cache's evictions
// are fighting over (eviction-during-send: the dropped frames must
// surrender their pins, the pinned slots must zombie and recycle).
func sabotage(addr string, id, round int) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer raw.Close()

	if round%2 == 1 {
		return sabotageSharedReads(raw)
	}

	name := fmt.Sprintf("sab%d-%d", id, round)
	body := make([]byte, 5+len(name))
	body[0] = byte(id % 2)
	body[1], body[2], body[3], body[4] = 0, 0, 0, 16 // 16 blocks
	copy(body[5:], name)
	if err := server.WriteFrame(raw, 1, server.OpCreate, body); err != nil {
		return err
	}
	_, status, resp, err := readFrame(bufio.NewReader(raw))
	if err != nil {
		return err
	}
	if status != server.StatusOK {
		return fmt.Errorf("create %s: %s", name, server.StatusName(status))
	}
	fid := uint32(resp[0])<<24 | uint32(resp[1])<<16 | uint32(resp[2])<<8 | uint32(resp[3])

	// Pipeline misses (every block is cold) and hang up mid-fill.
	rd := make([]byte, 13)
	rd[0], rd[1], rd[2], rd[3] = byte(fid>>24), byte(fid>>16), byte(fid>>8), byte(fid)
	rd[12] = server.ReadNoData
	for b := 0; b < 16; b++ {
		rd[7] = byte(b)
		rd[11] = 1 // size
		if err := server.WriteFrame(raw, uint32(2+b), server.OpRead, rd); err != nil {
			return nil // server may have raced the close; that's the point
		}
	}
	return nil
}

// sabotageSharedReads pipelines whole-block reads of the shared file and
// abandons the connection without consuming the responses.
func sabotageSharedReads(raw net.Conn) error {
	if err := server.WriteFrame(raw, 1, server.OpOpen, []byte("shared")); err != nil {
		return err
	}
	_, status, resp, err := readFrame(bufio.NewReader(raw))
	if err != nil {
		return err
	}
	if status != server.StatusOK {
		return fmt.Errorf("open shared: %s", server.StatusName(status))
	}
	fid := uint32(resp[0])<<24 | uint32(resp[1])<<16 | uint32(resp[2])<<8 | uint32(resp[3])

	rd := make([]byte, 13)
	rd[0], rd[1], rd[2], rd[3] = byte(fid>>24), byte(fid>>16), byte(fid>>8), byte(fid)
	rd[10] = byte(core.BlockSize >> 8) // size: the whole block, real payloads
	for b := 0; b < 16; b++ {
		rd[7] = byte(b % 24)
		if err := server.WriteFrame(raw, uint32(2+b), server.OpRead, rd); err != nil {
			return nil
		}
	}
	return nil
}
