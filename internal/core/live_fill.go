package core

import (
	"repro/internal/cache"
	"repro/internal/fs"
	"repro/internal/sim"
)

// Fill is one in-flight block read — the kernel's miss-status-holding
// register. The kernel takes it from its free list, the I/O executor
// (LiveConfig.StartFill) fills Data or Err, and hands it back to the
// kernel, applying it via CompleteFill while it holds the kernel. Concurrent misses on
// the same block coalesce into one Fill through the waiter list: one
// store read regardless of fan-in. CompleteFill returns the record to
// the free list, so the executor must not touch a fill once it has
// handed it back: the record may already be another block's.
type Fill struct {
	ID cache.BlockID
	// Data is the destination the executor reads the block into:
	// BlockSize bytes, backed by the buffer's cache slot — the store
	// read lands directly in the arena, no intermediate slice. A buffer
	// evicted mid-fill keeps its (leaked) slot, so Data stays valid for
	// the waiters either way.
	Data []byte
	Err  error // set by the executor on I/O failure

	buf     *cache.Buf
	done    bool
	waiters []waiter // kept, emptied, across the record's reuses
	// self backs the run of one a demand miss dispatches (run), so the
	// miss allocates no slice to hand StartFill.
	self [1]*Fill
}

// waiter is one request parked on a fill: its reply, whether it found
// the block cached (it coalesced onto the fill), and the error of the
// eviction its own miss forced, reported if the fill itself succeeds.
// A read's reply is the server's pooled one; a write's is a closure.
type waiter struct {
	reply ReadReply
	hit   bool
	werr  error
}

// run returns fl as a run of one.
func (fl *Fill) run() []*Fill {
	fl.self[0] = fl
	return fl.self[:]
}

// raRun is one file's entry in an owner's sequential detector: the last
// block read, and the leading edge of the prefetch window — the highest
// block already scheduled for read-ahead on the run. The window refills
// half-a-depth at a time so prefetches arrive as multi-block runs the
// executor can vector, instead of the one-block top-ups a per-read scheme
// degenerates to.
type raRun struct{ last, until int32 }

// minReadAheadSweep is the smallest sequential-detector size worth
// sweeping for removed files (liveOwner.raSweepAt).
const minReadAheadSweep = 64

// newFill starts buf's fill on a record from the free list, or a new
// one until as many exist as fills are ever in flight together.
func (l *Live) newFill(buf *cache.Buf) *Fill {
	buf.ValidAt = ioPending
	var fl *Fill
	if n := len(l.freeFills); n > 0 {
		fl = l.freeFills[n-1]
		l.freeFills = l.freeFills[:n-1]
	} else {
		fl = new(Fill)
	}
	fl.ID, fl.Data, fl.Err, fl.buf, fl.done = buf.ID, buf.Slot.Data(), nil, buf, false
	l.mshr[buf.ID] = fl
	return fl
}

// addWaiter parks reply on fl, or answers it at once if fl has landed.
func (l *Live) addWaiter(fl *Fill, reply ReadReply, hit bool, werr error) {
	w := waiter{reply, hit, werr}
	if fl.done {
		w.answer(l.fillData(fl), fl.Err)
		return
	}
	fl.waiters = append(fl.waiters, w)
}

// answer replies to w with a landed fill's bytes and error; the error of
// w's own eviction shows only when the fill itself succeeded.
func (w *waiter) answer(data []byte, err error) {
	if err == nil {
		err = w.werr
	}
	w.reply.ReadDone(data, w.hit, err)
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
// straight from that buffer — the store's copy is stale until its batch
// lands, and the copy costs no I/O at all. A block with
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

// dispatchFills starts a run's I/O: stage each fill (the write-behind
// forward can satisfy some in place), then hand the rest to the executor
// in one call so a K-block read-ahead run costs one vectored read instead
// of K. StoreReads counts blocks, not calls, so the counter stays
// comparable across executors; the call shape shows up in
// BatchedFills/FillBatchBlocks instead. Without an executor each fill
// reads inline.
func (l *Live) dispatchFills(fls []*Fill) {
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
	if sf := l.cfg.StartFill; sf != nil {
		sf(run)
		return
	}
	for _, fl := range run {
		fl.Err = l.store.ReadBlock(int32(fl.ID.File), fl.ID.Num, fl.Data)
		l.CompleteFill(fl)
	}
}

// CompleteFill applies a finished block read: install the bytes (or
// drop the buffer and count a read error), then run every waiter. Must be
// called by the kernel's holder. A buffer evicted while its fill was in flight is
// not re-installed — its waiters still get the bytes, and the buffer
// stays IOPending, exactly the leak-to-GC discipline of the DES. The
// MSHR entry is removed only if it is still this fill's: a fresh miss
// after a mid-fill eviction owns the slot now.
func (l *Live) CompleteFill(fl *Fill) {
	if l.mshr[fl.ID] == fl {
		delete(l.mshr, fl.ID)
	}
	if fl.Err != nil {
		l.fill.ReadErrors++
	}
	if l.bc.Peek(fl.ID) == fl.buf {
		if fl.Err != nil {
			l.bc.Drop(fl.buf)
		} else {
			fl.buf.ValidAt = 0
		}
	}
	fl.done = true
	// No waiter can join now (addWaiter answers a landed fill at once),
	// and none is answered twice: the record goes back to the free list
	// only after the last.
	for i := range fl.waiters {
		fl.waiters[i].answer(l.fillData(fl), fl.Err)
	}
	clear(fl.waiters)
	fl.waiters = fl.waiters[:0]
	fl.buf, fl.Data, fl.Err = nil, nil, nil
	l.freeFills = append(l.freeFills, fl)
}

// CountFillBatch records one multi-block store read issued by the fill
// executor: a run of blocks fills retired as one vectored call. Kernel
// goroutine only.
func (l *Live) CountFillBatch(blocks int) {
	l.fill.BatchedFills++
	l.fill.FillBatchBlocks += int64(blocks)
}

// NoteFillQueueDepth tracks the fill queue's high-water mark: how far
// the bounded worker pool fell behind the miss stream. The kernel's
// holder only.
func (l *Live) NoteFillQueueDepth(depth int) {
	if int64(depth) > l.fill.FillQueueHighWater {
		l.fill.FillQueueHighWater = int64(depth)
	}
}

// lookup is the demand access's cache lookup, counting the first touch of
// a prefetched block. A buffer nobody has referenced is one read-ahead
// brought in (demand inserts set the bit at once), and the lookup is what
// sets it: the reference bit is the record, as in the paper's BUF header.
func (l *Live) lookup(id cache.BlockID, owner, off, size int) *cache.Buf {
	if b := l.bc.Peek(id); b != nil && !b.Referenced {
		l.fill.PrefetchHits++
	}
	return l.bc.LookupBy(id, owner, off, size)
}

// noteSequential updates the per-owner sequential detector and issues
// read-ahead once two consecutive blocks have been read, keeping up to
// ReadAheadDepth blocks in flight — the same detection rule as the DES
// kernel's noteSequential and internal/disk's track-buffer model (a
// request extending the previous address streams; anything else seeks).
// Prefetch fills go through the MSHR like any other, so a demand miss
// that catches up simply coalesces onto the in-flight prefetch.
//
// Scheduling is windowed: the window [blk+1, until] refills only when
// the reader has consumed it to within half the depth, and a refill
// extends it back out to blk+depth in one go. At depth 2 that is
// exactly the old one-block top-up; at depth K the steady state issues
// a K/2-block run every K/2 reads, which dispatchFills hands to the
// executor as one vectored store read.
func (l *Live) noteSequential(owner int, f *fs.File, blk int32, now sim.Time) {
	if !l.cfg.ReadAhead {
		return
	}
	o := l.owners[owner]
	if o.runs == nil {
		o.runs = make(map[fs.FileID]raRun)
	}
	if len(o.runs) >= o.raSweepAt {
		// Forget the files that have been removed since the detector was
		// last this big; it may then grow to twice what is left.
		for fid := range o.runs {
			if _, ok := l.fsys.ByID(fid); !ok {
				delete(o.runs, fid)
			}
		}
		o.raSweepAt = max(2*len(o.runs), minReadAheadSweep)
	}
	r, seen := o.runs[f.ID()]
	if !seen || blk != r.last+1 {
		// Run broken (or just starting): forget the old window so a
		// re-scan of evicted blocks prefetches again from scratch.
		o.runs[f.ID()] = raRun{last: blk, until: blk}
		return
	}
	depth := l.cfg.ReadAheadDepth
	if depth <= 0 {
		depth = 2
	}
	until := max(r.until, blk)
	target := until
	if int(until)-int(blk) <= depth/2 { // refill once no more than half full
		target = max(until, min(blk+int32(depth), int32(f.Size())-1))
	}
	o.runs[f.ID()] = raRun{last: blk, until: target}
	if target == until {
		return
	}
	run := l.raRun[:0]
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
		run = append(run, l.newFill(buf))
		o.stats.Prefetches++
		l.fill.PrefetchIssued++
	}
	l.dispatchFills(run)
	l.raRun = run[:0]
}
