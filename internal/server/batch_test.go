package server_test

import (
	"bytes"
	"context"
	"hash/fnv"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/server"
	"repro/internal/stats"
)

// diffOutcome is everything the differential test compares between the
// batched and single-block fill paths.
type diffOutcome struct {
	readHash   uint64           // FNV over every byte every read returned, in order
	proc       core.ProcStats   // the session's counters
	fill       stats.FillStats  // the kernel's fill pipeline counters
	storeState map[int32][]byte // final store contents after the last flush
}

const diffBlocks = 64

// diffKernelConfig is the kernel both sides of the differential test
// run: a 16-block cache under depth-4 read-ahead over ms.
func diffKernelConfig(ms *disk.MemStore) core.LiveConfig {
	return core.LiveConfig{
		CacheBytes:     16 * core.BlockSize,
		Store:          ms,
		ReadAhead:      true,
		ReadAheadDepth: 4,
	}
}

// diffWorkload drives one deterministic single-client workload —
// sequential whole-block writes, a sequential scan under read-ahead,
// strided re-reads, partial read-modify-writes — through write and read,
// and returns the FNV hash of every byte every read produced, in order.
func diffWorkload(t *testing.T,
	write func(blk int32, off int, payload []byte) error,
	read func(blk int32, off, size int) ([]byte, error)) uint64 {
	t.Helper()
	h := fnv.New64a()
	block := make([]byte, core.BlockSize)

	// Phase 1: dirty every block; the 16-block cache forces a steady
	// stream of dirty victims through the write-back path.
	for b := int32(0); b < diffBlocks; b++ {
		for i := range block {
			block[i] = byte(int32(i) + b*13)
		}
		if err := write(b, 0, block); err != nil {
			t.Fatalf("write %d: %v", b, err)
		}
	}
	// Phase 2: sequential scan; read-ahead issues runs, and early fills
	// race the still-draining write-backs (the forwarding path).
	for b := int32(0); b < diffBlocks; b++ {
		data, err := read(b, 0, core.BlockSize)
		if err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		h.Write(data)
	}
	// Phase 3: strided re-reads (breaks the sequential detector) and
	// partial rewrites of cold blocks (read-modify-write fills).
	for b := int32(0); b < diffBlocks; b += 3 {
		data, err := read(b, 5, 100)
		if err != nil {
			t.Fatalf("strided read %d: %v", b, err)
		}
		h.Write(data)
	}
	for b := int32(1); b < diffBlocks; b += 7 {
		if err := write(b, 9, []byte{byte(b), 0xee, byte(b)}); err != nil {
			t.Fatalf("partial write %d: %v", b, err)
		}
	}
	// One more pass so the rewrites are observed through the cache too.
	for b := int32(0); b < diffBlocks; b++ {
		data, err := read(b, 0, core.BlockSize)
		if err != nil {
			t.Fatalf("final read %d: %v", b, err)
		}
		h.Write(data)
	}
	return h.Sum64()
}

// diffStoreState reads the workload file's final blocks off the store.
func diffStoreState(t *testing.T, ms *disk.MemStore, file fs.FileID) map[int32][]byte {
	t.Helper()
	state := make(map[int32][]byte)
	dst := make([]byte, core.BlockSize)
	for b := int32(0); b < diffBlocks; b++ {
		if err := ms.ReadBlock(int32(file), b, dst); err != nil {
			t.Fatal(err)
		}
		state[b] = append([]byte(nil), dst...)
	}
	return state
}

// runDiffServer runs the workload over the wire against a fresh server:
// the fill worker pool, and write-behind batches at depth wbDepth.
func runDiffServer(t *testing.T, wbDepth int) diffOutcome {
	t.Helper()
	ms := disk.NewMemStore()
	srv, _, dial := startServer(t, server.Config{
		Kernel:         diffKernelConfig(ms),
		WritebackDepth: wbDepth,
	})
	c := dial()
	defer c.Close()
	f, err := c.Create("diff", 0, diffBlocks)
	if err != nil {
		t.Fatal(err)
	}
	var out diffOutcome
	out.readHash = diffWorkload(t,
		func(blk int32, off int, payload []byte) error {
			_, err := c.Write(f.ID, blk, off, payload)
			return err
		},
		func(blk int32, off, size int) ([]byte, error) {
			data, _, err := c.Read(f.ID, blk, off, size)
			return data, err
		})
	// The shard still holds its last partial batch, which only the
	// drain writes: begin Shutdown with the session open, and read its
	// counters once the held victims have landed.
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	m := waitWriteBehindIdle(t, srv)
	out.proc, out.fill = m.Sessions[0].Stats, m.Kernel.Fill

	c.Close()
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	out.storeState = diffStoreState(t, ms, f.ID)
	return out
}

// runDiffKernel runs the workload on a bare core.Live with no fill or
// write-back executor: every miss is one inline single-block store read
// and every dirty victim one inline store write, in request order — the
// kernel's synchronous mode, which the oracle test pins.
func runDiffKernel(t *testing.T) diffOutcome {
	t.Helper()
	ms := disk.NewMemStore()
	l := core.NewLive(diffKernelConfig(ms))
	owner := l.AddOwner("diff")
	f, err := l.Create(owner, "diff", 0, diffBlocks)
	if err != nil {
		t.Fatal(err)
	}
	var out diffOutcome
	out.readHash = diffWorkload(t,
		func(blk int32, off int, payload []byte) (err error) {
			l.Write(owner, f.ID(), blk, off, payload, func(_ bool, werr error) { err = werr })
			return err
		},
		func(blk int32, off, size int) (got []byte, err error) {
			l.Read(owner, f.ID(), blk, off, size, func(data []byte, _ bool, rerr error) {
				if err = rerr; err == nil {
					got = append(got, data[off:off+size]...)
				}
			})
			return got, err
		})
	if out.proc, err = l.OwnerStats(owner); err != nil {
		t.Fatal(err)
	}
	out.fill = l.Snapshot().Fill

	if _, err := l.FlushDirty(core.MaxTime); err != nil {
		t.Fatal(err)
	}
	out.storeState = diffStoreState(t, ms, f.ID())
	return out
}

// TestBatchedFillsDifferential pins the batched fill/write-back path
// byte-identical to the single-block path: the same workload through a
// bare kernel with synchronous single-block fills and write-backs and
// through the server's worker pool with write-behind batches must return
// the same bytes on every read, leave the same bytes on the store, and
// agree on every deterministic counter. The only licensed difference is
// *who* performs the store reads: write-behind forwarding replaces store
// reads one-for-one, so
// StoreReads(sync) = StoreReads(batched) + WritebackHits(batched).
// CoalescedMisses is not among the counters: whether a demand read finds
// its block's read-ahead fill still in flight (and joins it) or already
// complete (and hits) is a race between the client and the fill worker,
// and the synchronous kernel never has a fill in flight to join.
func TestBatchedFillsDifferential(t *testing.T) {
	sync := runDiffKernel(t)
	batched := runDiffServer(t, 16)

	if sync.readHash != batched.readHash {
		t.Error("read streams differ between single-block and batched fill paths")
	}
	for b, want := range sync.storeState {
		if !bytes.Equal(batched.storeState[b], want) {
			t.Errorf("final store contents differ at block %d", b)
		}
	}
	if sync.proc != batched.proc {
		t.Errorf("session counters differ:\n sync    %+v\n batched %+v", sync.proc, batched.proc)
	}
	if got, want := batched.fill.StoreReads+batched.fill.WritebackHits, sync.fill.StoreReads; got != want {
		t.Errorf("StoreReads+WritebackHits = %d (batched), want %d (sync StoreReads)", got, want)
	}
	for _, c := range []struct {
		name       string
		sync, batc int64
	}{
		{"PrefetchIssued", sync.fill.PrefetchIssued, batched.fill.PrefetchIssued},
		{"PrefetchHits", sync.fill.PrefetchHits, batched.fill.PrefetchHits},
	} {
		if c.sync != c.batc {
			t.Errorf("%s differs: sync %d, batched %d", c.name, c.sync, c.batc)
		}
	}

	// The batched run must actually have batched: multi-block runs hit
	// the store, and the queue was ever nonempty.
	if batched.fill.BatchedFills == 0 {
		t.Error("batched run issued no multi-block fill batches")
	}
	if batched.fill.FillBatchBlocks < 2*batched.fill.BatchedFills {
		t.Errorf("FillBatchBlocks = %d with %d batches; every batch must carry >= 2 blocks",
			batched.fill.FillBatchBlocks, batched.fill.BatchedFills)
	}
	if batched.fill.FillQueueHighWater == 0 {
		t.Error("FillQueueHighWater = 0; fills never queued")
	}
	if sync.fill.BatchedFills != 0 || sync.fill.WritebackBatches != 0 {
		t.Error("legacy run reported batch activity")
	}
}

// TestFillBatchSyscalls is the syscall-count regression gate from the
// issue: a sequential scan under depth-K read-ahead against a FileStore
// must cost ~2 store calls per K blocks — the windowed scheduler
// refills half the window at a time and each refill must reach the
// store as one vectored read. An unbatched fill path costs one call per
// block and fails this bound by 4x.
func TestFillBatchSyscalls(t *testing.T) {
	const (
		blocks = 256
		depth  = 8
	)
	fs, err := disk.NewFileStore(filepath.Join(t.TempDir(), "store.dat"))
	if err != nil {
		t.Fatal(err)
	}
	srv, _, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{
			Store:          fs,
			ReadAhead:      true,
			ReadAheadDepth: depth,
		},
	})
	c := dial()
	defer c.Close()
	f, err := c.Create("seq", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the store out of band with one batched write: run-aware
	// slot allocation lands the 256 sequential blocks in sequential
	// slots, the layout the scan's preadv runs need. (Shards=1, so the
	// wire file id is the store's file id.)
	specs := make([]disk.BlockSpan, blocks)
	srcs := make([][]byte, blocks)
	for b := range specs {
		specs[b] = disk.BlockSpan{File: int32(f.ID), Blk: int32(b)}
		srcs[b] = bytes.Repeat([]byte{byte(b)}, core.BlockSize)
	}
	for i, err := range fs.WriteBlocks(specs, srcs) {
		if err != nil {
			t.Fatalf("populate[%d]: %v", i, err)
		}
	}
	r0, v0, _, _ := fs.IOCounts()

	for b := int32(0); b < blocks; b++ {
		data, _, err := c.Read(f.ID, b, 0, core.BlockSize)
		if err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		if data[0] != byte(b) || data[core.BlockSize-1] != byte(b) {
			t.Fatalf("block %d: wrong bytes", b)
		}
	}

	sr, vr, _, _ := fs.IOCounts()
	total := (sr - r0) + (vr - v0)
	// Expected shape: 2 scalar demand reads (blocks 0 and 1, before the
	// detector fires), one depth-sized opening run, then a half-window
	// refill every depth/2 blocks — about blocks/(depth/2) calls. The
	// bound allows 2 calls per K-block window plus slack for clamped
	// tail refills; the unbatched path's ~256 calls fails it by 4x.
	bound := int64(2*(blocks/depth) + 8)
	if total > bound {
		t.Errorf("sequential %d-block scan at depth %d cost %d store read calls (%d scalar + %d vectored), want <= %d",
			blocks, depth, total, sr-r0, vr-v0, bound)
	}
	if vr-v0 == 0 {
		t.Error("no vectored reads issued; read-ahead runs are not reaching preadv")
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics not ok")
	}
	if m.Kernel.Fill.BatchedFills == 0 {
		t.Error("BatchedFills = 0 after a read-ahead scan")
	}
}

// heldRead is one store read stopped at readGate until the test lets it
// through.
type heldRead struct {
	file, blk int32
	release   chan struct{}
}

// readGate holds every block read at the store until the test releases
// it, or until open closes (the test's cleanup, so a failed test cannot
// strand a fill worker and hang Shutdown). It counts the reads at the
// gate and keeps the most seen at once. It is a plain disk.Store, so a
// multi-block run reaches it as per-block reads in run order. at holds
// a read for every miss the test sends, so a read the test does not
// expect still arrives and can be reported.
type readGate struct {
	disk.Store
	at       chan heldRead
	open     chan struct{}
	mu       sync.Mutex
	now, max int
}

func (g *readGate) ReadBlock(file, blk int32, dst []byte) error {
	g.mu.Lock()
	g.now++
	g.max = max(g.max, g.now)
	g.mu.Unlock()
	r := heldRead{file, blk, make(chan struct{})}
	g.at <- r
	select {
	case <-r.release:
	case <-g.open:
	}
	g.mu.Lock()
	g.now--
	g.mu.Unlock()
	return g.Store.ReadBlock(file, blk, dst)
}

// TestFillPoolShape pins the fill pool's shape on one shard: at most four
// reads (fillWorkers) are ever at the store; later misses wait in the
// fill queue; and a worker that comes free takes everything queued as one
// batch, which reaches the store sorted by (file, block) whatever order
// the misses arrived in.
func TestFillPoolShape(t *testing.T) {
	const workers, misses = 4, 8
	gate := &readGate{Store: disk.NewMemStore(), at: make(chan heldRead, 2*misses), open: make(chan struct{})}
	srv, _, dial := startServer(t, server.Config{Kernel: core.LiveConfig{Store: gate}, Shards: 1})
	t.Cleanup(func() { close(gate.open) })
	c := dial()
	defer c.Close()
	f, err := c.Create("shape", 0, misses)
	if err != nil {
		t.Fatal(err)
	}
	next := func() heldRead {
		t.Helper()
		select {
		case r := <-gate.at:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("no read reached the store")
			return heldRead{}
		}
	}
	inflight := func(want int) server.Metrics {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			m, ok := srv.Metrics()
			if !ok {
				t.Fatal("server drained")
			}
			if m.FillsInflight == want {
				return m
			}
			if time.Now().After(deadline) {
				t.Fatalf("FillsInflight = %d, want %d", m.FillsInflight, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One session per miss (a client.Conn carries one request at a
	// time), blocks sent in descending order, each once the one before
	// is at the store or in the queue.
	var held []heldRead
	errs := make(chan error, misses)
	for i := 0; i < misses; i++ {
		mc := dial()
		defer mc.Close()
		blk := int32(misses - 1 - i)
		go func() {
			_, _, err := mc.Read(f.ID, blk, 0, core.BlockSize)
			errs <- err
		}()
		if i < workers {
			r := next()
			if r.blk != blk {
				t.Fatalf("miss %d: block %d at the store, want %d", i+1, r.blk, blk)
			}
			held = append(held, r)
		}
		inflight(i + 1)
	}
	// Misses 5-8 queue behind four busy workers and none reaches the store.
	m := inflight(misses)
	if hw := m.Kernel.Fill.FillQueueHighWater; hw < misses-workers {
		t.Errorf("FillQueueHighWater = %d, want >= %d", hw, misses-workers)
	}
	select {
	case r := <-gate.at:
		t.Fatalf("block %d reached the store with every worker busy", r.blk)
	case <-time.After(20 * time.Millisecond):
	}

	// Free one worker: it drains all four queued misses as one batch, in
	// ascending block order.
	close(held[0].release)
	for want := int32(0); want < misses-workers; want++ {
		r := next()
		if r.file != int32(f.ID) || r.blk != want {
			t.Fatalf("batch read %d: file %d block %d, want file %d block %d", want, r.file, r.blk, f.ID, want)
		}
		close(r.release)
	}
	for _, r := range held[1:] {
		close(r.release)
	}
	for i := 0; i < misses; i++ {
		if err := <-errs; err != nil {
			t.Errorf("read: %v", err)
		}
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.max > workers {
		t.Errorf("%d reads at the store at once, want <= %d", gate.max, workers)
	}
}
