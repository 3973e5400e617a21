package server_test

// The lifecycle suite: a stopped server costs nothing. Shutdown ends
// every goroutine the server started, Close lets go of the cache arenas
// and the store, and the callers that can arrive late — Metrics, a
// second Shutdown, a second Close — return promptly. Run by name under
// -race as its own CI step (make race-lifecycle).

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/internal/server/client"
)

// lifecycleServer is the suite's server: 2 shards splitting cacheBytes
// (4 MB but where a test wants evictions at once), read-ahead on, a
// write-behind queue of 4.
func lifecycleServer(t *testing.T, store disk.Store, cacheBytes int64) (srv *server.Server, addr string, served <-chan error) {
	t.Helper()
	srv = server.New(server.Config{
		Kernel: core.LiveConfig{
			CacheBytes: cacheBytes, Alloc: cache.LRUSP, Store: store,
			ReadAhead: true, ReadAheadDepth: 4,
		},
		Shards:         2,
		WritebackDepth: 4,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	go func() { ch <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), ch
}

// within fails the test if f has not returned after d: the suite's
// definition of "returns promptly", and of "none hangs".
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still running after %v", what, d)
	}
}

// noServerGoroutines fails the test if a goroutine of the server
// package is (still) alive.
func noServerGoroutines(t *testing.T) {
	t.Helper()
	if found := leakcheck.Wait(2*time.Second, serverFrames); len(found) > 0 {
		t.Errorf("%d server goroutine(s) survive:\n%s", len(found), strings.Join(found, "\n\n"))
	}
}

func readBody(f client.File, blk int32, flags uint8) []byte {
	return server.ReadReq{File: f.ID, Blk: blk, Size: core.BlockSize, Flags: flags}.Append(nil)
}

// lifecycleSession is one client's life: a 3 MB file written whole (so
// two sessions dirty more than the cache holds and evictions ride the
// write-behind queue), read back in order (read-ahead), then re-read
// from the start with 32 requests in flight on a raw connection
// (pipelined misses — the head of the file was evicted by its tail).
func lifecycleSession(addr, name string) error {
	const blocks = 384
	c, err := client.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	f, err := c.Create(name, 0, blocks)
	if err != nil {
		return err
	}
	block := bytes.Repeat([]byte(name[:1]), core.BlockSize)
	for b := int32(0); b < blocks; b++ {
		if _, err := c.Write(f.ID, b, 0, block); err != nil {
			return err
		}
	}
	dst := make([]byte, core.BlockSize)
	for b := int32(0); b < blocks; b++ {
		if _, err := c.ReadInto(f.ID, b, 0, core.BlockSize, dst); err != nil {
			return err
		}
		if !bytes.Equal(dst, block) {
			return errors.New(name + ": wrong bytes read back")
		}
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(20 * time.Second))
	errc := make(chan error, 1)
	go func() {
		br := bufio.NewReader(raw)
		for i := 0; i < blocks; i++ {
			_, tag, _, err := readFrame(br)
			if err == nil && tag != server.StatusOK {
				err = errors.New(name + ": pipelined read: status " + server.StatusName(tag))
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	// The reader paces the writer through the socket buffers; the
	// server's per-session bound (32 in flight) does the rest.
	for i := 0; i < blocks; i++ {
		if err := server.WriteFrame(raw, uint32(i), server.OpRead, readBody(f, int32(i), server.ReadNoData)); err != nil {
			return err
		}
	}
	return <-errc
}

// lifecycleCycle is New → Serve → two sessions → Shutdown → Close, and
// then nothing is kept.
func lifecycleCycle(t *testing.T) {
	t.Helper()
	srv, addr, served := lifecycleServer(t, disk.NewMemStore(), core.MB(4))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, name := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = lifecycleSession(addr, name)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestLifecycleCyclesLeaveNothing: sixteen servers started, used and
// stopped one after the other leave no goroutine and less than one
// cache arena of heap behind. (When a shard was a goroutine that never
// returned, each stopped server kept its two loops, its 4 MB of arenas
// and its store.)
func TestLifecycleCyclesLeaveNothing(t *testing.T) {
	lifecycleCycle(t) // warm the package-level pools
	noServerGoroutines(t)
	goroutines, heap := runtime.NumGoroutine(), heapInuse()
	for i := 0; i < 16; i++ {
		lifecycleCycle(t)
	}
	noServerGoroutines(t)
	// A goroutine of the last cycle (a test's `go srv.Serve`, a client's
	// reader) may be past its work and not yet out of the count.
	if n := leakcheck.Settle(goroutines, 5*time.Second); n > goroutines {
		t.Errorf("%d goroutines before the cycles, %d after", goroutines, n)
	}
	if grown := int64(heapInuse()) - int64(heap); grown >= core.MB(4) {
		t.Errorf("heap in use grew by %.1f MB over 16 stopped servers, want under one 4 MB arena", float64(grown)/(1<<20))
	}
}

// stormEnd is how one connection of the dial storm ended.
type stormEnd int

const (
	stormServed  stormEnd = iota // every ping answered ok; the client hung up
	stormRefused                 // answered in band: refused, the drain has begun
	stormClosed                  // closed by the server, unserved or mid-session
	stormHung                    // no answer within the deadline
)

// stormConn is one connection of the dial storm: up to three pings,
// then a disconnect.
func stormConn(c net.Conn) stormEnd {
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	for i := 0; i < 3; i++ {
		err := server.WriteFrame(c, uint32(i), server.OpPing, nil)
		var tag uint8
		if err == nil {
			_, tag, _, err = readFrame(br)
		}
		var ne net.Error
		switch {
		case errors.As(err, &ne) && ne.Timeout():
			return stormHung
		case err != nil:
			return stormClosed
		case tag == server.StatusRefused:
			return stormRefused
		}
	}
	return stormServed
}

// TestLifecycleDialStorm: connections racing Shutdown are each served,
// or served then refused, or closed; none hangs, Shutdown needs no
// force, and no session reader or writer survives it.
func TestLifecycleDialStorm(t *testing.T) {
	srv, addr, served := lifecycleServer(t, disk.NewMemStore(), core.MB(4))
	const dialers = 32
	var ends [4]atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return // the listener is gone
				}
				end := stormConn(c)
				ends[end].Add(1)
				if end != stormServed {
					return // the server is going down
				}
			}
		}()
	}
	// Shut down in the thick of it: every dialer has been through at
	// least one whole connection and all are dialing again.
	for deadline := time.Now().Add(10 * time.Second); ends[stormServed].Load() < 4*dialers; {
		if time.Now().After(deadline) {
			t.Fatal("the storm never got going")
		}
		time.Sleep(time.Millisecond)
	}
	within(t, 15*time.Second, "Shutdown under a dial storm", func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	within(t, 15*time.Second, "the dialers", wg.Wait)
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	noServerGoroutines(t)
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	t.Logf("%d dialers: %d connections served, %d refused in band, %d closed",
		dialers, ends[stormServed].Load(), ends[stormRefused].Load(), ends[stormClosed].Load())
	if n := ends[stormHung].Load(); n > 0 {
		t.Errorf("%d connection(s) hung", n)
	}
}

// TestLifecycleLateCallers: the callers that hold nothing open in a
// shard — Metrics racing the drain and after it, a second Shutdown, a
// second Close — all return promptly on a stopped server, and Metrics
// says so; LiveFiles lists the namespace between Shutdown and Close
// only.
func TestLifecycleLateCallers(t *testing.T) {
	srv, addr, served := lifecycleServer(t, disk.NewMemStore(), core.MB(4))
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("late", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(f.ID, 1, 0, make([]byte, disk.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err == nil {
		t.Error("Close on a running server succeeded")
	}
	if got := srv.LiveFiles(); got != nil {
		t.Errorf("LiveFiles on a running server: %d files", len(got))
	}
	if err := srv.FlushDirty(); err == nil {
		t.Error("FlushDirty on a running server succeeded")
	}

	// Metrics from several goroutines, across the whole drain.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 4; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					srv.Metrics()
				}
			}
		}()
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	within(t, 15*time.Second, "Shutdown", func() {
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	close(stop)
	within(t, 5*time.Second, "Metrics pollers", pollers.Wait)
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}

	late := func(stage string) {
		t.Helper()
		within(t, 5*time.Second, "Metrics "+stage, func() {
			if _, ok := srv.Metrics(); ok {
				t.Errorf("Metrics %s: ok", stage)
			}
		})
		within(t, 5*time.Second, "a second Shutdown "+stage, func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("second Shutdown %s: %v", stage, err)
			}
		})
	}
	late("after Shutdown")
	if err := srv.FlushDirty(); err != nil {
		t.Errorf("FlushDirty after Shutdown: %v", err)
	}
	if got := srv.LiveFiles(); len(got) != 1 || got[0].Name() != "late" || got[0].Size() != 2 {
		t.Errorf("LiveFiles after Shutdown: %+v, want the one file late of 2 blocks", got)
	}
	for i := 0; i < 2; i++ {
		within(t, 5*time.Second, "Close", func() {
			if err := srv.Close(); err != nil {
				t.Errorf("Close #%d: %v", i+1, err)
			}
		})
	}
	late("after Close")
	if err := srv.FlushDirty(); err != nil {
		t.Errorf("FlushDirty after Close: %v", err)
	}
	if got := srv.LiveFiles(); got != nil {
		t.Errorf("LiveFiles after Close: %d files", len(got))
	}
	if err := srv.Serve(nopListener{}); err == nil {
		t.Error("Serve after Shutdown succeeded")
	}
	noServerGoroutines(t)
}

// nopListener is a listener Serve must refuse (and close) unaccepted.
type nopListener struct{}

func (nopListener) Accept() (net.Conn, error) { return nil, io.EOF }
func (nopListener) Close() error              { return nil }
func (nopListener) Addr() net.Addr            { return &net.TCPAddr{} }

// gatedStore holds every write until the gate opens.
type gatedStore struct {
	disk.Store
	gate chan struct{}
}

func (s gatedStore) WriteBlock(file, blk int32, src []byte) error {
	<-s.gate
	return s.Store.WriteBlock(file, blk, src)
}

// TestLifecycleShutdownExpiresAfterOneShardRetired: the grace runs out
// while one shard still waits for its write-backs and the other has
// already retired. Forcing must not block on the retired shard's
// channel — nothing receives from it any more — and Shutdown still
// waits out the drain barrier of the live one.
func TestLifecycleShutdownExpiresAfterOneShardRetired(t *testing.T) {
	mem := disk.NewMemStore()
	store := gatedStore{Store: mem, gate: make(chan struct{})}
	const shardBlocks, blocks = 4, 7
	srv, addr, served := lifecycleServer(t, store, 2*shardBlocks*core.BlockSize)

	// One file, all in one shard, written whole through the shard's four
	// blocks: the last three writes each evict a dirty block. That is
	// fewer than the write-behind queue holds, so the shard's loop never
	// writes inline and stays responsive while its write-behind sits at the
	// gate.
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("held", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0x5A}, core.BlockSize)
	for b := int32(0); b < blocks; b++ {
		if _, err := c.Write(f.ID, b, 0, block); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	result := make(chan error, 1)
	go func() { result <- srv.Shutdown(ctx) }()

	// Metrics turns false when a shard has retired; Shutdown cannot
	// have returned, the other shard's write-backs are at the gate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := srv.Metrics(); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard retired")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-result:
		t.Fatalf("Shutdown returned (%v) with write-backs still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(store.gate)
	within(t, 10*time.Second, "Shutdown after the gate opened", func() {
		if err := <-result; !errors.Is(err, context.Canceled) {
			t.Errorf("Shutdown: %v, want context.Canceled", err)
		}
	})
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	noServerGoroutines(t)
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := make([]byte, core.BlockSize)
	for b := int32(0); b < blocks; b++ {
		if err := mem.ReadBlock(int32(f.ID), b, got); err != nil || !bytes.Equal(got, block) {
			t.Errorf("block %d not on the store after Close (err %v)", b, err)
		}
	}
}

// TestClosedSessionsHoldNoMemory churns sessions through a 2-shard server
// — connect, read the stats, close — and holds what stays on the heap to
// the id-indexed slots a session leaves behind (the kernel's owners, the
// cache's decision records), at most 100 B a closed session. A released
// owner's record or a stats snapshot's decision record left in any shard
// costs ~390 B.
func TestClosedSessionsHoldNoMemory(t *testing.T) {
	if server.RaceEnabled {
		t.Skip("the race detector's shadow memory swamps the measure")
	}
	const sessions = 2000
	srv, _, dial := startServer(t, server.Config{Shards: 2})
	churn := func(n int) {
		for i := 0; i < n; i++ {
			c := dial()
			if _, err := c.Stats(); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			m, ok := srv.Metrics()
			if !ok {
				t.Fatal("metrics refused")
			}
			if m.SessionsActive == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d sessions still open 10 s after their clients closed", m.SessionsActive)
			}
			time.Sleep(time.Millisecond)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	churn(200) // size the slices and pools past their first growth
	before := heap()
	churn(sessions)
	after := heap()
	per := (float64(after) - float64(before)) / sessions
	t.Logf("%.0f B of heap per closed session", per)
	if per > 100 {
		t.Errorf("%.0f B of heap per closed session, want ≤ 100", per)
	}
}
