package server

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
)

// The layer benchmarks of the shard and the store side, with no socket
// in front of them: one shard built as New builds it (newShard) but
// driven on the benchmark's goroutine through its one entry point, ask —
// requests as a session's reader runs them, the fill workers' body
// (runFills, whose runs complete through ask) called in place of a
// worker — so each stage is timed, and its allocations counted, alone.

// stageShard is one such shard over store, with one session whose
// responses queue on a channel the caller drains (it holds 64).
type stageShard struct {
	sh *shard
	se *session
	w  fillScratch
}

func newStageShard(tb testing.TB, cfg Config, store disk.Store) *stageShard {
	tb.Helper()
	cfg.fillDefaults()
	srv := &Server{cfg: cfg, store: store}
	sh := srv.newShard(0)
	srv.shards = []*shard{sh}
	se := &session{srv: srv, name: "stage", out: make(chan outFrame, 64), owners: make([]int, 1)}
	sh.ask(func(sh *shard) { sh.openSession(se) })
	return &stageShard{sh: sh, se: se}
}

// create makes a file of blocks blocks and returns read requests, one a
// block, each for the whole block.
func (s *stageShard) create(tb testing.TB, name string, blocks int) []*request {
	tb.Helper()
	var f *fs.File
	var err error
	s.sh.ask(func(sh *shard) { f, err = sh.kern.Create(s.se.owners[0], name, 0, blocks) })
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]*request, blocks)
	for blk := range reqs {
		body := ReadReq{File: f.ID(), Blk: int32(blk), Size: core.BlockSize}.Append(nil)
		reqs[blk] = &request{id: uint32(blk), op: OpRead, body: body}
	}
	return reqs
}

// handle runs r on the shard as a session's reader would. The handler
// keeps nothing of r past its return, so the caller may run r again.
func (s *stageShard) handle(r *request) {
	s.sh.ask(func(sh *shard) { sh.handle(s.se, r) })
}

// fill runs the fill worker over everything queued, each run completing
// in the shard, as a worker would.
func (s *stageShard) fill() {
	for len(s.sh.fq.fills) > 0 {
		s.w.fills = s.sh.fq.pop(s.w.fills, maxFillBatch)
		s.sh.runFills(&s.w)
	}
}

// reply takes one response off the session, giving back its pin as the
// writer would once it had sent it.
func (s *stageShard) reply(tb testing.TB) {
	f := <-s.se.out
	if f.tag != StatusOK {
		tb.Fatalf("response %d: status %d", f.id, f.tag)
	}
	releaseFrame(&f)
}

// shardArms are BenchmarkShardHandle's two arms, each returning one op:
//   - hit: a read of a cached block;
//   - coalesced: a read that misses and a second one that joins its
//     fill while the fill is queued for the worker (the server's fill
//     executor), then the fill run through the worker's body and
//     completed on the shard, answering both. The file is four times
//     the cache, so every miss evicts.
var shardArms = []struct {
	name string
	op   func(tb testing.TB) func(i int)
}{
	{"hit", func(tb testing.TB) func(int) {
		s := newStageShard(tb, Config{}, disk.NewMemStore())
		r := s.create(tb, "f", 1)[0]
		s.handle(r)
		s.fill()
		s.reply(tb)
		return func(int) {
			s.handle(r)
			s.reply(tb)
		}
	}},
	{"coalesced", func(tb testing.TB) func(int) {
		const cacheBlocks = 64
		s := newStageShard(tb, Config{Kernel: core.LiveConfig{CacheBytes: cacheBlocks * core.BlockSize}}, disk.NewMemStore())
		reqs := s.create(tb, "f", 4*cacheBlocks)
		op := func(i int) {
			r := reqs[i%len(reqs)]
			s.handle(r)
			s.handle(r)
			s.fill()
			s.reply(tb)
			s.reply(tb)
		}
		for i := range reqs { // warm: a full cache and every record made
			op(i)
		}
		return op
	}},
}

// BenchmarkShardHandle times shard.handle on pre-built read requests
// over a zero-latency MemStore; one op is one shardArms op.
func BenchmarkShardHandle(b *testing.B) {
	for _, arm := range shardArms {
		b.Run(arm.name, func(b *testing.B) {
			op := arm.op(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
}

// TestShardHandleAllocs is BenchmarkShardHandle's gate: neither arm
// allocates. A run is 256 ops, so AllocsPerRun's truncation to a whole
// number per run cannot hide an allocation.
func TestShardHandleAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, arm := range shardArms {
		op := arm.op(t)
		i := 0
		if n := testing.AllocsPerRun(10, func() {
			for end := i + 256; i < end; i++ {
				op(i)
			}
		}); n != 0 {
			t.Errorf("%s: 256 ops allocated %.0f times, want 0", arm.name, n)
		}
	}
}

// nopStore is a zero-latency store that keeps nothing: reads leave
// their buffers as they are and writes go nowhere. A batch answers with
// one reused error slice — the []error result is the store's own
// allocation (disk.BatchStore), not its caller's — so a benchmark over
// it counts its caller's allocations alone.
type nopStore struct{ errs []error }

func (*nopStore) ReadBlock(file, blk int32, dst []byte) error  { return nil }
func (*nopStore) WriteBlock(file, blk int32, src []byte) error { return nil }
func (*nopStore) Close() error                                 { return nil }
func (s *nopStore) ReadBlocks(specs []disk.BlockSpan, _ [][]byte) []error {
	return s.batch(len(specs))
}
func (s *nopStore) WriteBlocks(specs []disk.BlockSpan, _ [][]byte) []error {
	return s.batch(len(specs))
}

func (s *nopStore) batch(n int) []error {
	if cap(s.errs) < n {
		s.errs = make([]error, n)
	}
	return s.errs[:n]
}

// runFillsOp returns one op of the fill worker's part: 64 reads that
// miss — four files' 16-block runs, asked in shuffled order — leave 64
// fills queued, which the worker drains as one batch, sorts, splits and
// reads as four vectored calls over a nopStore, completing each run in
// the shard, where its reads are answered. Two halves of the files
// alternate over a 64-block cache, so every read of an op misses.
func runFillsOp(tb testing.TB) func() {
	const files, run = 4, 16
	s := newStageShard(tb, Config{Kernel: core.LiveConfig{CacheBytes: files * run * core.BlockSize}}, &nopStore{})
	var halves [2][]*request
	for f := 0; f < files; f++ {
		reqs := s.create(tb, fmt.Sprint("f", f), 2*run)
		halves[0] = append(halves[0], reqs[:run]...)
		halves[1] = append(halves[1], reqs[run:]...)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, h := range halves {
		rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
	}
	half := 0
	return func() {
		reqs := halves[half]
		half ^= 1
		for _, r := range reqs {
			s.handle(r)
		}
		s.w.fills = s.sh.fq.pop(s.w.fills, maxFillBatch)
		if len(s.w.fills) != len(reqs) {
			tb.Fatalf("%d fills queued, want %d", len(s.w.fills), len(reqs))
		}
		s.sh.runFills(&s.w)
		for range reqs {
			s.reply(tb)
		}
	}
}

// BenchmarkRunFills times the fill worker's sort, split and completion of
// a batch, with the misses that queue it; one op is a 64-fill batch
// (runFillsOp).
func BenchmarkRunFills(b *testing.B) {
	op := runFillsOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestRunFillsAllocs is BenchmarkRunFills's gate: once a worker has its
// batch and scratch and the kernel its records, a batch allocates
// nothing (ten batches a run).
func TestRunFillsAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector allocates")
	}
	op := runFillsOp(t)
	op()
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10; i++ {
			op()
		}
	}); n != 0 {
		t.Errorf("ten 64-fill batches allocated %.0f times, want 0", n)
	}
}

// writeBatchOp returns one op of write-behind's own part: 64 victims
// join the shard's FIFO (startWriteBack), which cuts them as one whole
// batch (writeBehind) and writes it on a goroutine of its own
// (writeBatch) over a nopStore, which completes the batch in the shard.
// The write-backs are made here, not by the kernel, so it finds none of
// them pending.
func writeBatchOp(tb testing.TB) func() {
	s := newStageShard(tb, Config{WritebackDepth: 64}, &nopStore{})
	wbs := make([]*core.WriteBack, 64)
	for i := range wbs {
		id := cache.BlockID{File: 1, Num: int32(i)}
		wbs[i] = &core.WriteBack{ID: id, Data: make([]byte, core.BlockSize), Owner: cache.NoOwner}
	}
	return func() {
		cut := false
		s.sh.ask(func(sh *shard) {
			for _, wb := range wbs {
				sh.startWriteBack(wb)
			}
			sh.writeBehind()
			cut = sh.wbBusy
		})
		if !cut {
			tb.Fatal("a whole batch was not cut")
		}
		s.sh.srv.running.Wait() // the batch's goroutine has completed it
		if len(s.sh.wbq) != 0 {
			tb.Fatalf("%d batches left in the FIFO", len(s.sh.wbq))
		}
	}
}

// TestDiscardBatchesDrain: a burst of discards, a batch each, leaves the
// FIFO empty with no ask from outside: each batch's completion starts the
// next.
func TestDiscardBatchesDrain(t *testing.T) {
	s := newStageShard(t, Config{WritebackDepth: 64}, &nopStore{})
	s.sh.ask(func(sh *shard) {
		for i := 0; i < 20; i++ {
			span := []disk.BlockSpan{{File: int32(i), Blk: 0}}
			sh.startWriteBack(&core.WriteBack{ID: cache.BlockID{File: fs.FileID(i)}, Discard: span, Conflict: true, Owner: cache.NoOwner})
		}
	})
	s.sh.srv.running.Wait() // each batch starts the next as it completes
	s.sh.ask(func(sh *shard) {
		if len(sh.wbq) != 0 {
			t.Errorf("%d batches queued after 20 discards, want 0", len(sh.wbq))
		}
	})
}

// BenchmarkWriteBatch times the write-behind cut and writeBatch; one op
// is one whole 64-victim batch (writeBatchOp).
func BenchmarkWriteBatch(b *testing.B) {
	op := writeBatchOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
