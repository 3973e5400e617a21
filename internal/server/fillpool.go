// fillpool.go — the bounded fill worker pool and the write-behind batch
// writer: the store-side mechanism under the shard kernels.
//
// The kernel decides *what* to fill and write back (policy); this file
// decides the call shape (mechanism). Misses and read-ahead runs queue
// on a per-shard fillQueue, a small worker pool drains it, groups
// same-file adjacent blocks, and retires each run with one vectored
// store read; a write-behind batch, which the shard cuts from its FIFO
// (shard.go), goes to the store with one vectored call. Each run and
// each batch completes in its shard through ask, on the goroutine that
// did the store call. MSHR join/detach, orphan rules and Conflict
// ordering all live above this layer and see the same
// per-fill/per-write-back completions they always did.

package server

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
)

const (
	// fillWorkers is the per-shard pool size: enough concurrency to
	// overlap a few independent misses without unbounded goroutine spawn.
	fillWorkers = 4
	// maxFillBatch bounds how many queued fills one worker drains at a
	// time; maxWritebackBatch bounds a write-behind batch, which the shard
	// cuts whole once it holds min(WritebackDepth, maxWritebackBatch)
	// victims.
	maxFillBatch      = 128
	maxWritebackBatch = 64
	// writeTimeout bounds one response write (wire.go).
	writeTimeout = 30 * time.Second
)

// fillQueue is the per-shard miss queue between the kernel and the fill
// workers. Push happens under the shard lock and never blocks; pop
// blocks a worker, holding no shard lock, until work or close. mu is
// never held while a shard lock is taken.
type fillQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	fills  []*core.Fill
	closed bool
}

func newFillQueue() *fillQueue {
	q := &fillQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues fills and reports the resulting queue depth (the
// kernel's high-water counter wants it).
func (q *fillQueue) push(fls []*core.Fill) int {
	q.mu.Lock()
	q.fills = append(q.fills, fls...)
	depth := len(q.fills)
	q.mu.Unlock()
	q.cond.Signal()
	return depth
}

// pop moves up to max queued fills onto dst[:0], blocking while the
// queue is empty and open. It returns an empty slice when the queue is
// closed and drained — the workers' exit signal.
func (q *fillQueue) pop(dst []*core.Fill, max int) []*core.Fill {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.fills) == 0 && !q.closed {
		q.cond.Wait()
	}
	n := min(len(q.fills), max)
	dst = append(dst[:0], q.fills[:n]...)
	rest := copy(q.fills, q.fills[n:])
	clear(q.fills[rest:])
	q.fills = q.fills[:rest]
	return dst
}

// close wakes every worker to exit once the queue drains. Called at
// shard retire, when no fill can ever be pushed again.
func (q *fillQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// fillScratch is one fill worker's reusable memory: the batch it
// drained, and the spans and destinations of the vectored read it is
// building.
type fillScratch struct {
	fills []*core.Fill
	specs []disk.BlockSpan
	dsts  [][]byte
}

// fillWorker is one pool goroutine: drain a batch, retire it run by
// run, repeat until the queue closes.
func (sh *shard) fillWorker() {
	defer sh.srv.running.Done()
	w := fillScratch{fills: make([]*core.Fill, 0, maxFillBatch)}
	for {
		w.fills = sh.fq.pop(w.fills, maxFillBatch)
		if len(w.fills) == 0 {
			return
		}
		sh.runFills(&w)
	}
}

// byBlock orders fills by (file, block).
func byBlock(a, b *core.Fill) int {
	return cmp.Or(cmp.Compare(a.ID.File, b.ID.File), cmp.Compare(a.ID.Num, b.ID.Num))
}

// runFills sorts a drained batch by (file, block), splits it into
// same-file adjacent runs, and issues one store read per run — the run
// coalescing rule: only blocks that can plausibly share a vectored call
// are grouped; everything else stays a single-block read. The worker
// completes each run itself, in the shard through ask, preserving
// per-fill CompleteFill semantics exactly; the shard counts these fills
// in flight and cannot retire before they complete. A run is complete
// when ask returns, so the batch is the worker's again once runFills
// returns.
//
// A block can appear twice (an orphaned mid-fill-eviction read and its
// successor fill); equal block numbers never extend a run, so both
// issue separately and each reads the same authoritative store bytes.
func (sh *shard) runFills(w *fillScratch) {
	batch := w.fills
	slices.SortFunc(batch, byBlock)
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].ID.File == batch[i].ID.File && batch[j].ID.Num == batch[j-1].ID.Num+1 {
			j++
		}
		run := batch[i:j]
		i = j
		if len(run) == 1 {
			fl := run[0]
			fl.Err = sh.srv.store.ReadBlock(int32(fl.ID.File), fl.ID.Num, fl.Data)
		} else {
			w.specs, w.dsts = w.specs[:0], w.dsts[:0]
			for _, fl := range run {
				w.specs = append(w.specs, disk.BlockSpan{File: int32(fl.ID.File), Blk: fl.ID.Num})
				w.dsts = append(w.dsts, fl.Data)
			}
			for k, err := range disk.ReadBatch(sh.srv.store, w.specs, w.dsts) {
				run[k].Err = err
			}
			clear(w.dsts)
		}
		sh.ask(func(sh *shard) { sh.completeFills(run) })
	}
}

// writeBatch is one write-behind batch's trip to the store, on a
// goroutine of its own that the shard starts once the batch may go
// (shard.writeBehind): a discard goes through disk.Discard, a release's
// barrier makes no store call, a lone victim keeps the plain WriteBlock
// path, and a group goes through WriteBatch so adjacent-slot victims
// collapse into pwritev runs. The batch then completes in the shard
// through ask, which the shard cannot refuse: the batch is in its FIFO
// until then, and it cannot retire before the FIFO is empty.
func (sh *shard) writeBatch(batch []*core.WriteBack) {
	defer sh.srv.running.Done()
	switch wb := batch[0]; {
	case wb.Discard != nil:
		wb.Err = disk.Discard(sh.srv.store, wb.Discard)
	case wb.Barrier():
	case len(batch) == 1:
		wb.Err = sh.srv.store.WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
	default:
		specs, srcs := make([]disk.BlockSpan, len(batch)), make([][]byte, len(batch))
		for i, wb := range batch {
			specs[i] = disk.BlockSpan{File: int32(wb.ID.File), Blk: wb.ID.Num}
			srcs[i] = wb.Data
		}
		for i, err := range disk.WriteBatch(sh.srv.store, specs, srcs) {
			batch[i].Err = err
		}
	}
	sh.ask(func(sh *shard) { sh.completeWriteBacks(batch) })
}
