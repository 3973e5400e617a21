// fillpool.go — the bounded fill worker pool and the batching
// write-behind flusher: the store-side mechanism under the shard
// kernels.
//
// The kernel decides *what* to fill and write back (policy); this file
// decides the call shape (mechanism). Misses and read-ahead runs queue
// on a per-shard fillQueue, a small worker pool drains it, groups
// same-file adjacent blocks, and retires each run with one vectored
// store read; the flusher gathers victims off wbch until it holds one
// queue's worth, lets the fills then in flight reach the store first,
// and writes the whole batch with one vectored call. MSHR join/detach,
// orphan rules and Conflict ordering all live above this layer and see
// the same per-fill/per-write-back completions they always did.

package server

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
)

const (
	// fillWorkers is the per-shard pool size: enough concurrency to
	// overlap a few independent misses without unbounded goroutine spawn.
	fillWorkers = 4
	// maxFillBatch bounds how many queued fills one worker drains at a
	// time; maxWritebackBatch bounds the flusher's batch, which it writes
	// whole once it holds min(WritebackDepth, maxWritebackBatch) victims.
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

// pop removes up to max queued fills, blocking while the queue is empty
// and open. It returns nil when the queue is closed and drained — the
// workers' exit signal.
func (q *fillQueue) pop(max int) []*core.Fill {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.fills) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.fills) == 0 {
		return nil
	}
	n := len(q.fills)
	if n > max {
		n = max
	}
	batch := make([]*core.Fill, n)
	copy(batch, q.fills)
	rest := copy(q.fills, q.fills[n:])
	for i := rest; i < len(q.fills); i++ {
		q.fills[i] = nil
	}
	q.fills = q.fills[:rest]
	return batch
}

// close wakes every worker to exit once the queue drains. Called at
// shard retire, when no fill can ever be pushed again.
func (q *fillQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// fillWorker is one pool goroutine: drain a batch, retire it run by
// run, repeat until the queue closes.
func (sh *shard) fillWorker(store disk.Store) {
	defer sh.srv.running.Done()
	for {
		batch := sh.fq.pop(maxFillBatch)
		if batch == nil {
			return
		}
		sh.runFills(store, batch)
	}
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
func (sh *shard) runFills(store disk.Store, batch []*core.Fill) {
	sort.Slice(batch, func(a, b int) bool {
		if batch[a].ID.File != batch[b].ID.File {
			return batch[a].ID.File < batch[b].ID.File
		}
		return batch[a].ID.Num < batch[b].ID.Num
	})
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].ID.File == batch[i].ID.File && batch[j].ID.Num == batch[j-1].ID.Num+1 {
			j++
		}
		run := batch[i:j]
		i = j
		if len(run) == 1 {
			fl := run[0]
			fl.Err = store.ReadBlock(int32(fl.ID.File), fl.ID.Num, fl.Data)
		} else {
			specs := make([]disk.BlockSpan, len(run))
			dsts := make([][]byte, len(run))
			for k, fl := range run {
				specs[k] = disk.BlockSpan{File: int32(fl.ID.File), Blk: fl.ID.Num}
				dsts[k] = fl.Data
			}
			for k, err := range disk.ReadBatch(store, specs, dsts) {
				run[k].Err = err
			}
		}
		sh.kch <- kmsg{fills: run}
	}
}

// flusher is the shard's write-behind goroutine. It gathers victims off
// wbch and holds them until the batch has one queue's worth,
// min(depth, maxWritebackBatch) — delayed writes go to the store in
// bursts, as update(8) sends them. Then it lets every fill the shard has
// in flight at that moment come back — demand reads first, as disksort
// sweeps delayed writes into the read stream's gaps; a later fill never
// extends the wait, so misses cannot starve write-behind — and retires
// the batch with one store call. A held victim is no less durable than
// a dirty block still cached, and a read of it is served from the
// kernel's pendingWB. The drain ends a partial batch: the loop closes
// drainc when shutdown begins, so the drain barrier (no write-back in
// flight) completes, and wbch cannot close under a held batch.
//
// Queue order is preserved within and across batches, which is what
// keeps every same-block Conflict constraint honored; a batch never
// holds the same block twice — on a duplicate the gathered batch
// flushes first, so the older bytes are on the store before the newer
// write is even issued. A removed file's discard takes its turn the same
// way: whatever was gathered ahead of it (any of it may be the file's)
// goes to the store first, then its blocks go back in one batch of their
// own.
func (sh *shard) flusher(store disk.Store) {
	defer sh.srv.running.Done()
	full := min(cap(sh.wbch), maxWritebackBatch)
	var batch []*core.WriteBack
	seen := make(map[cache.BlockID]bool)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		sh.flushWBs(store, batch)
		batch = nil // the slice rode the completion message; start fresh
		clear(seen)
	}
	add := func(wb *core.WriteBack) {
		if wb.Discard != nil {
			flush()
			wb.Err = disk.Discard(store, wb.Discard)
			sh.kch <- kmsg{wbs: []*core.WriteBack{wb}}
			return
		}
		if seen[wb.ID] {
			flush()
		}
		batch = append(batch, wb)
		seen[wb.ID] = true
	}
	for wb := range sh.wbch {
		add(wb)
	gather:
		for len(batch) > 0 && len(batch) < full {
			select {
			case wb2 := <-sh.wbch:
				add(wb2)
			case <-sh.drainc:
				break gather
			}
		}
		issued := sh.fillsIssued.Load()
		for len(batch) > 0 && sh.fillsDone.Load() < issued {
			<-sh.fillWake
		}
		flush()
	}
}

// flushWBs retires one gathered batch, which re-enters the kernel loop
// as one completion: a lone victim keeps the plain WriteBlock path, a
// group goes through WriteBatch so adjacent-slot victims collapse into
// pwritev runs.
func (sh *shard) flushWBs(store disk.Store, batch []*core.WriteBack) {
	if len(batch) == 1 {
		wb := batch[0]
		wb.Err = store.WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
	} else {
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
