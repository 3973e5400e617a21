// fillpool.go — the bounded fill worker pool and the write-behind batch
// writer: the store-side mechanism under the shard kernels.
//
// The kernel decides *what* to fill and write back (policy); this file
// decides the call shape (mechanism). Misses and read-ahead runs queue
// on a per-shard fillQueue, a small worker pool drains it, groups
// same-file adjacent blocks, and retires each run with one vectored
// store read; a write-behind batch, which the shard loop cuts from its
// FIFO (shard.go), goes to the store with one vectored call. MSHR
// join/detach, orphan rules and Conflict ordering all live above this
// layer and see the same per-fill/per-write-back completions they
// always did.

package server

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
)

const (
	// fillWorkers is the per-shard pool size: enough concurrency to
	// overlap a few independent misses without unbounded goroutine spawn.
	fillWorkers = 4
	// maxFillBatch bounds how many queued fills one worker drains at a
	// time; maxWritebackBatch bounds a write-behind batch, which the loop
	// cuts whole once it holds min(WritebackDepth, maxWritebackBatch)
	// victims.
	maxFillBatch      = 128
	maxWritebackBatch = 64
	// writeTimeout bounds one response write (wire.go).
	writeTimeout = 30 * time.Second
)

// fillQueue is the per-shard miss queue between the kernel loop and the
// fill workers. Push happens on the kernel goroutine and never blocks;
// pop blocks a worker until work or close.
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

// fillBatch is a batch of fills a worker drained, sorted and split into
// runs, each sent to the loop as a subslice. A run in a kmsg is the
// loop's until it has completed the run, so the worker reuses the batch
// only once open, the runs sent and not yet completed, is back to zero.
type fillBatch struct {
	fills []*core.Fill
	open  atomic.Int32
}

// fillScratch is one fill worker's reusable memory: its batches, and the
// spans and destinations of the vectored read it is building.
type fillScratch struct {
	batches []*fillBatch
	specs   []disk.BlockSpan
	dsts    [][]byte
}

// batch returns a batch none of whose runs the loop still holds, making
// one when the loop holds a run of every batch there is.
func (w *fillScratch) batch() *fillBatch {
	for _, b := range w.batches {
		if b.open.Load() == 0 {
			return b
		}
	}
	b := &fillBatch{fills: make([]*core.Fill, 0, maxFillBatch)}
	w.batches = append(w.batches, b)
	return b
}

// fillWorker is one pool goroutine: drain a batch, retire it run by
// run, repeat until the queue closes.
func (sh *shard) fillWorker() {
	defer sh.srv.running.Done()
	var w fillScratch
	for {
		b := w.batch()
		b.fills = sh.fq.pop(b.fills, maxFillBatch)
		if len(b.fills) == 0 {
			return
		}
		sh.runFills(b, &w)
	}
}

// byBlock orders fills by (file, block).
func byBlock(a, b *core.Fill) int {
	return cmp.Or(cmp.Compare(a.ID.File, b.ID.File), cmp.Compare(a.ID.Num, b.ID.Num))
}

// runFills sorts a drained batch by (file, block), splits it into
// same-file adjacent runs, and issues one store read per run — the run
// coalescing rule: only blocks that can plausibly share a vectored call
// are grouped; everything else stays a single-block read. Each run
// re-enters the kernel loop as one completion message, preserving
// per-fill CompleteFill semantics exactly. The send is plain: the loop
// counts these fills in flight and cannot retire until it has received
// their completion.
//
// A block can appear twice (an orphaned mid-fill-eviction read and its
// successor fill); equal block numbers never extend a run, so both
// issue separately and each reads the same authoritative store bytes.
func (sh *shard) runFills(b *fillBatch, w *fillScratch) {
	batch := b.fills
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
			fl.Err = sh.store.ReadBlock(int32(fl.ID.File), fl.ID.Num, fl.Data)
		} else {
			w.specs, w.dsts = w.specs[:0], w.dsts[:0]
			for _, fl := range run {
				w.specs = append(w.specs, sh.store.span(fl.ID))
				w.dsts = append(w.dsts, fl.Data)
			}
			for k, err := range disk.ReadBatch(sh.store.base, w.specs, w.dsts) {
				run[k].Err = err
			}
			clear(w.dsts)
		}
		b.open.Add(1)
		sh.kch <- kmsg{fills: run, batch: b}
	}
}

// writeBatch is one write-behind batch's trip to the store, on a
// goroutine of its own that the loop starts once the batch may go
// (shard.writeBehind): a discard goes through disk.Discard, a release's
// barrier makes no store call, a lone victim keeps the plain WriteBlock
// path, and a group goes through WriteBatch so adjacent-slot victims
// collapse into pwritev runs. The batch re-enters
// the loop as one completion; the send is plain, as the loop counts the
// batch in flight and cannot retire until it has received it.
func (sh *shard) writeBatch(store disk.Store, batch []*core.WriteBack) {
	defer sh.srv.running.Done()
	switch wb := batch[0]; {
	case wb.Discard != nil:
		wb.Err = disk.Discard(store, wb.Discard)
	case wb.Barrier():
	case len(batch) == 1:
		wb.Err = store.WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
	default:
		specs := make([]disk.BlockSpan, len(batch))
		srcs := make([][]byte, len(batch))
		for i, wb := range batch {
			specs[i] = disk.BlockSpan{File: int32(wb.ID.File), Blk: wb.ID.Num}
			srcs[i] = wb.Data
		}
		for i, err := range disk.WriteBatch(store, specs, srcs) {
			batch[i].Err = err
		}
	}
	sh.kch <- kmsg{wbs: batch}
}
