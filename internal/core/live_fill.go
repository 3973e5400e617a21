package core

import (
	"repro/internal/cache"
	"repro/internal/fs"
	"repro/internal/sim"
)

// Fill is one in-flight block read — the kernel's miss-status-holding
// register. The kernel allocates it, the I/O executor
// (LiveConfig.StartFill) fills Data or Err, and hands it back to the
// kernel loop, which applies it via CompleteFill. Concurrent misses on
// the same block coalesce into one Fill through the waiter list: one
// store read regardless of fan-in.
type Fill struct {
	ID cache.BlockID
	// Data is the destination the executor reads the block into:
	// BlockSize bytes, backed by the buffer's cache slot — the store
	// read lands directly in the arena, no intermediate slice. A buffer
	// evicted mid-fill keeps its (leaked) slot, so Data stays valid for
	// the waiters either way.
	Data []byte
	Err  error // set by the executor on I/O failure

	buf      *cache.Buf
	done     bool
	prefetch bool // issued by read-ahead, no demand waiter yet
	waiters  []func(data []byte, err error)
}

// minReadAheadSweep is the smallest sequential-detector size worth
// sweeping for removed files (liveOwner.raSweepAt).
const minReadAheadSweep = 64

func (l *Live) newFill(buf *cache.Buf) *Fill {
	buf.ValidAt = ioPending
	fl := &Fill{ID: buf.ID, Data: buf.Slot.Data(), buf: buf}
	l.mshr[buf.ID] = fl
	return fl
}

func (l *Live) addWaiter(fl *Fill, fn func(data []byte, err error)) {
	if fl.done {
		fn(l.fillData(fl), fl.Err)
		return
	}
	fl.waiters = append(fl.waiters, fn)
}

// fillData returns the bytes a fill's waiter should see: the block's
// current slot while the buffer is still cached — a coalesced write
// ahead in the waiter list may have copy-on-written the block off the
// slot the fill landed in — or the fill's own (detached) bytes.
func (l *Live) fillData(fl *Fill) []byte {
	if b := fl.buf; b != nil && b.Slot != nil && l.bc.Peek(fl.ID) == b {
		return b.Slot.Data()
	}
	return fl.Data
}

// stageFill resolves a fill that needs no store I/O. A block whose
// newest bytes are still sitting in the write-behind queue is served
// straight from that buffer — the store's copy is stale until the
// flusher lands it, and the copy costs no I/O at all. A block with
// nothing queued, of a file whose name still has a discard queued
// (Live.shadowed), has never been written by this file — its write-backs
// are all behind that discard — so it is zeros, and the store is not
// asked. Returns false when the fill was completed in place, true when it
// still needs a store read.
func (l *Live) stageFill(fl *Fill) bool {
	if wb := l.pendingWB[fl.ID]; wb != nil {
		copy(fl.Data, wb.Data)
		l.fill.WritebackHits++
		l.CompleteFill(fl)
		return false
	}
	if l.shadowed[fl.ID.File] != nil {
		clear(fl.Data)
		l.CompleteFill(fl)
		return false
	}
	return true
}

// dispatchFill starts a fill's I/O.
func (l *Live) dispatchFill(fl *Fill) {
	if !l.stageFill(fl) {
		return
	}
	l.fill.StoreReads++
	if sf := l.cfg.StartFill; sf != nil {
		sf(fl)
		return
	}
	fl.Err = l.store.ReadBlock(int32(fl.ID.File), fl.ID.Num, fl.Data)
	l.CompleteFill(fl)
}

// dispatchFillRun starts a read-ahead run's I/O: stage each fill (the
// write-behind forward can satisfy some in place), then hand the rest
// to the batch executor in one call so a K-block run costs one vectored
// read instead of K. StoreReads counts blocks, not calls, so the
// counter stays comparable across executors; the call shape shows up in
// BatchedFills/FillBatchBlocks instead. Without a batch executor the
// run degrades to per-fill dispatch.
func (l *Live) dispatchFillRun(fls []*Fill) {
	sfb := l.cfg.StartFillBatch
	if sfb == nil || l.cfg.StartFill == nil {
		for _, fl := range fls {
			l.dispatchFill(fl)
		}
		return
	}
	run := fls[:0]
	for _, fl := range fls {
		if l.stageFill(fl) {
			run = append(run, fl)
		}
	}
	if len(run) == 0 {
		return
	}
	l.fill.StoreReads += int64(len(run))
	sfb(run)
}

// CompleteFill applies a finished block read: install the bytes (or
// drop the buffer, on error), then run every waiter. Must be called on
// the kernel goroutine. A buffer evicted while its fill was in flight is
// not re-installed — its waiters still get the bytes, and the buffer
// stays IOPending, exactly the leak-to-GC discipline of the DES. The
// MSHR entry is removed only if it is still this fill's: a fresh miss
// after a mid-fill eviction owns the slot now.
func (l *Live) CompleteFill(fl *Fill) {
	if l.mshr[fl.ID] == fl {
		delete(l.mshr, fl.ID)
	}
	if l.bc.Peek(fl.ID) == fl.buf {
		if fl.Err != nil {
			l.bc.Drop(fl.buf)
			delete(l.prefetched, fl.ID)
		} else {
			fl.buf.ValidAt = 0
		}
	}
	fl.done = true
	ws := fl.waiters
	fl.waiters = nil
	for _, w := range ws {
		w(l.fillData(fl), fl.Err)
	}
}

// CountFillBatch records one multi-block store read issued by the fill
// executor: a run of blocks fills retired as one vectored call. Kernel
// goroutine only.
func (l *Live) CountFillBatch(blocks int) {
	l.fill.BatchedFills++
	l.fill.FillBatchBlocks += int64(blocks)
}

// NoteFillQueueDepth tracks the fill queue's high-water mark: how far
// the bounded worker pool fell behind the miss stream. Kernel goroutine
// only.
func (l *Live) NoteFillQueueDepth(depth int) {
	if int64(depth) > l.fill.FillQueueHighWater {
		l.fill.FillQueueHighWater = int64(depth)
	}
}

// notePrefetchHit counts the first demand touch of a prefetched block.
func (l *Live) notePrefetchHit(id cache.BlockID) {
	if l.prefetched[id] {
		delete(l.prefetched, id)
		l.fill.PrefetchHits++
	}
}

// noteSequential updates the per-owner sequential detector and issues
// read-ahead once two consecutive blocks have been read, keeping up to
// ReadAheadDepth blocks in flight — the same detection rule as the DES
// kernel's noteSequential and internal/disk's track-buffer model (a
// request extending the previous address streams; anything else seeks).
// Prefetch fills go through the MSHR like any other, so a demand miss
// that catches up simply coalesces onto the in-flight prefetch.
//
// Scheduling is windowed: the window [blk+1, raUntil] refills only when
// the reader has consumed it to within half the depth, and a refill
// extends it back out to blk+depth in one go. At depth 2 that is
// exactly the old one-block top-up; at depth K the steady state issues
// a K/2-block run every K/2 reads, which dispatchFillRun hands to the
// batch executor as one vectored store read.
func (l *Live) noteSequential(owner int, f *fs.File, blk int32, now sim.Time) {
	if !l.cfg.ReadAhead {
		return
	}
	o := l.owners[owner]
	if o.lastRead == nil {
		o.lastRead = make(map[fs.FileID]int32)
		o.raUntil = make(map[fs.FileID]int32)
	}
	if len(o.lastRead) >= o.raSweepAt {
		// Forget the files that have been removed since the detector was
		// last this big; it may then grow to twice what is left.
		for fid := range o.lastRead {
			if _, ok := l.fsys.ByID(fid); !ok {
				delete(o.lastRead, fid)
				delete(o.raUntil, fid)
			}
		}
		o.raSweepAt = max(2*len(o.lastRead), minReadAheadSweep)
	}
	last, seen := o.lastRead[f.ID()]
	o.lastRead[f.ID()] = blk
	if !seen || blk != last+1 {
		// Run broken (or just starting): forget the old window so a
		// re-scan of evicted blocks prefetches again from scratch.
		delete(o.raUntil, f.ID())
		return
	}
	depth := l.cfg.ReadAheadDepth
	if depth <= 0 {
		depth = 2
	}
	until, ok := o.raUntil[f.ID()]
	if !ok || until < blk {
		until = blk
	}
	if int(until)-int(blk) > depth/2 {
		return // window still more than half full
	}
	target := blk + int32(depth)
	if max := int32(f.Size()) - 1; target > max {
		target = max
	}
	if target <= until {
		return
	}
	run := make([]*Fill, 0, target-until)
	for next := until + 1; next <= target; next++ {
		id := cache.BlockID{File: f.ID(), Num: next}
		if l.bc.Peek(id) != nil {
			continue
		}
		if l.mshr[id] != nil {
			// A detached fill (mid-fill eviction) is still in flight;
			// starting another read for the block would race it.
			continue
		}
		buf, victim := l.bc.Insert(id, owner, now)
		l.flushVictim(victim) // a prefetch has no requester to hand an error
		fl := l.newFill(buf)
		fl.prefetch = true
		l.prefetched[id] = true
		o.stats.Prefetches++
		l.fill.PrefetchIssued++
		run = append(run, fl)
	}
	o.raUntil[f.ID()] = target
	if len(run) > 0 {
		l.dispatchFillRun(run)
	}
}
