package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/server/client"
)

func dialRaw(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// shutdownAndClose drains and closes the server mid-test (the t.Cleanup
// Shutdown from startServer is idempotent and becomes a no-op).
func shutdownAndClose(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// countingStore counts and delays store operations, so tests can pin
// exactly how many reads the MSHR let through and keep fills in flight
// long enough for concurrent misses to pile up.
type countingStore struct {
	disk.Store
	readDelay  time.Duration
	writeDelay time.Duration
	reads      atomic.Int64
	writes     atomic.Int64
}

func (s *countingStore) ReadBlock(file, blk int32, dst []byte) error {
	s.reads.Add(1)
	time.Sleep(s.readDelay)
	return s.Store.ReadBlock(file, blk, dst)
}

func (s *countingStore) WriteBlock(file, blk int32, src []byte) error {
	s.writes.Add(1)
	time.Sleep(s.writeDelay)
	return s.Store.WriteBlock(file, blk, src)
}

// flakyStore fails writes while fail is set.
type flakyStore struct {
	disk.Store
	fail atomic.Bool
}

func (s *flakyStore) WriteBlock(file, blk int32, src []byte) error {
	if s.fail.Load() {
		return errors.New("flaky store: write failed")
	}
	return s.Store.WriteBlock(file, blk, src)
}

// waitSessionsGone polls until the server has processed every session
// close, so a test can observe post-release state without racing the
// shard loops.
func waitSessionsGone(t *testing.T, srv *server.Server) server.Metrics {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, ok := srv.Metrics()
		if !ok {
			t.Fatal("server drained while waiting for session close")
		}
		if m.SessionsActive == 0 {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions never released: %d still active", m.SessionsActive)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerMissCoalescing is the tentpole regression: K concurrent
// sessions missing on the same cold block must trigger exactly one store
// read, and every session must get the correct bytes. The store sleeps
// long enough that all K requests are in the shard loop's hands before
// the fill lands.
func TestServerMissCoalescing(t *testing.T) {
	const K = 8
	store := &countingStore{Store: disk.NewMemStore(), readDelay: 20 * time.Millisecond}
	srv, _, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{
			Store:          store,
			EvictOnRelease: true, // setup's dirty block reaches the store on disconnect
		},
	})

	// Seed: one session writes the block and disconnects, so the bytes
	// are on the store and out of the cache — a genuinely cold hot block.
	want := bytes.Repeat([]byte{0xc4}, core.BlockSize)
	setup := dial()
	f, err := setup.Create("hot", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Write(f.ID, 0, 0, want); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	waitSessionsGone(t, srv)
	store.reads.Store(0)

	conns := make([]*client.Conn, K)
	for i := range conns {
		conns[i] = dial()
		defer conns[i].Close()
	}
	start := make(chan struct{})
	type out struct {
		data []byte
		err  error
	}
	outs := make([]out, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			data, _, err := conns[i].Read(f.ID, 0, 0, core.BlockSize)
			outs[i] = out{data, err}
		}(i)
	}
	close(start)
	wg.Wait()

	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("client %d: %v", i, o.err)
		}
		if !bytes.Equal(o.data, want) {
			t.Fatalf("client %d got wrong bytes", i)
		}
	}
	if n := store.reads.Load(); n != 1 {
		t.Errorf("store saw %d reads for %d concurrent misses, want exactly 1", n, K)
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics not ok")
	}
	if m.Kernel.Fill.StoreReads != 1 {
		t.Errorf("Fill.StoreReads = %d, want 1", m.Kernel.Fill.StoreReads)
	}
	if m.Kernel.Fill.CoalescedMisses == 0 {
		t.Error("Fill.CoalescedMisses = 0; concurrent misses did not coalesce")
	}
}

// TestServerMidFillDisconnect: sessions that hang up while their fill is
// in flight must not corrupt the fill for the sessions still waiting on
// it. The saboteurs issue the miss and slam the connection; the
// survivors coalesce onto the same fill and must get correct data.
// CheckInvariants (forced by startServer) audits every release.
func TestServerMidFillDisconnect(t *testing.T) {
	store := &countingStore{Store: disk.NewMemStore(), readDelay: 30 * time.Millisecond}
	srv, addr, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{Store: store},
	})

	want := bytes.Repeat([]byte{0x77}, core.BlockSize)
	setup := dial()
	f, err := setup.Create("mid", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Write(f.ID, 0, 0, want); err != nil {
		t.Fatal(err)
	}
	// Disown on release (default): the dirty block stays cached, so push
	// it to the store explicitly by flushing through a fresh server op —
	// simplest is to keep setup open and evict nothing; instead, make the
	// block cold by restarting the cache state: write it straight to the
	// store and never cache it under a live owner.
	setup.Close()
	waitSessionsGone(t, srv)
	// The block may still be cached (disowned). Overwrite the store copy
	// to match and drop nothing: survivors must see `want` either way.
	_ = store.Store.WriteBlock(int32(f.ID), 0, want)

	const saboteurs, survivors = 2, 2
	var wg sync.WaitGroup
	// Saboteurs: raw pipelined read of block 1 (cold), then immediate close.
	for i := 0; i < saboteurs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := dialRaw(addr)
			if err != nil {
				return
			}
			rd := server.ReadReq{File: f.ID, Blk: 1, Size: 1, Flags: server.ReadNoData}
			server.WriteFrame(raw, 1, server.OpRead, rd.Append(nil))
			raw.Close()
		}()
	}
	type out struct {
		data []byte
		err  error
	}
	outs := make([]out, survivors)
	for i := 0; i < survivors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dial()
			defer c.Close()
			// Touch the contested cold block too, then the seeded one.
			if _, err := c.ReadNoData(f.ID, 1, 0, 1); err != nil {
				outs[i].err = err
				return
			}
			data, _, err := c.Read(f.ID, 0, 0, core.BlockSize)
			outs[i] = out{data, err}
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("survivor %d: %v", i, o.err)
		}
		if !bytes.Equal(o.data, want) {
			t.Fatalf("survivor %d got wrong bytes after saboteur disconnects", i)
		}
	}
	waitSessionsGone(t, srv)
}

// TestWriteBehindDrainOnShutdown is the drain-barrier gate: dirty blocks
// queued to the write-behind flusher at disconnect must all be on the
// store after Shutdown+Close, even though the store writes slowly and
// the queue is far shallower than the burst.
func TestWriteBehindDrainOnShutdown(t *testing.T) {
	const blocks = 8
	ms := disk.NewMemStore()
	store := &countingStore{Store: ms, writeDelay: 20 * time.Millisecond}
	srv, _, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{
			Store:          store,
			EvictOnRelease: true,
		},
		WritebackDepth: 2,
	})

	c := dial()
	f, err := c.Create("drain", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for b := int32(0); b < blocks; b++ {
		if _, err := c.Write(f.ID, b, 0, bytes.Repeat([]byte{byte(0xd0 + b)}, core.BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close() // evict-on-release: 8 dirty victims hit the write-behind path at once
	m := waitSessionsGone(t, srv)
	if m.Kernel.Fill.WritebacksQueued != blocks {
		t.Errorf("WritebacksQueued = %d, want %d", m.Kernel.Fill.WritebacksQueued, blocks)
	}
	if m.Kernel.Fill.WritebackStalls == 0 {
		t.Error("WritebackStalls = 0; a depth-2 queue absorbed an 8-block burst without backpressure")
	}

	shutdownAndClose(t, srv)

	dst := make([]byte, core.BlockSize)
	for b := int32(0); b < blocks; b++ {
		if err := ms.ReadBlock(int32(f.ID), b, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0] != byte(0xd0+b) || dst[core.BlockSize-1] != byte(0xd0+b) {
			t.Fatalf("block %d not on the store after shutdown: got %#x", b, dst[0])
		}
	}
}

// TestWriteBackErrorStatus pins the satellite: a failing store write
// during a demand eviction reaches the session that forced it as an IO
// status — not a daemon panic — and the failure is counted.
func TestWriteBackErrorStatus(t *testing.T) {
	fs := &flakyStore{Store: disk.NewMemStore()}
	srv, _, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{
			CacheBytes: 4 * core.BlockSize,
			Store:      fs,
		},
	})
	c := dial()
	defer c.Close()
	f, err := c.Create("flaky", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{1}, core.BlockSize)
	for b := int32(0); b < 4; b++ {
		if _, err := c.Write(f.ID, b, 0, block); err != nil {
			t.Fatal(err)
		}
	}
	fs.fail.Store(true)
	_, err = c.Write(f.ID, 4, 0, block) // evicts a dirty victim into the failing store
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusIO {
		t.Fatalf("write over failing store: err = %v, want StatusIO", err)
	}
	fs.fail.Store(false)

	// The daemon survives and keeps serving.
	if _, _, err := c.Read(f.ID, 4, 0, 8); err != nil {
		t.Fatalf("server not serviceable after write-back error: %v", err)
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics not ok")
	}
	if m.Kernel.Fill.WritebackErrors == 0 {
		t.Error("WritebackErrors = 0 after a failed write-back")
	}
}

// TestServerReadAhead wires the flag end to end: a sequential scan over
// a slow store issues prefetches and later demand reads land on them.
func TestServerReadAhead(t *testing.T) {
	store := &countingStore{Store: disk.NewMemStore(), readDelay: 2 * time.Millisecond}
	srv, _, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{
			Store:          store,
			ReadAhead:      true,
			ReadAheadDepth: 2,
		},
	})
	c := dial()
	defer c.Close()
	f, err := c.Create("seq", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for b := int32(0); b < 16; b++ {
		if _, err := c.ReadNoData(f.ID, b, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics not ok")
	}
	if m.Kernel.Fill.PrefetchIssued == 0 {
		t.Error("sequential scan issued no prefetches")
	}
	if m.Kernel.Fill.PrefetchHits == 0 {
		t.Error("no demand read landed on a prefetched block")
	}
}
