package core

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/sim"
)

// WriteBack is one dirty victim handed to the asynchronous write-behind
// queue. The kernel allocates it (Data is the victim's bytes, immutable
// from then on), the executor (LiveConfig.StartWriteBack) arranges for
// the store write and for CompleteWriteBack(wb) to re-enter the kernel
// goroutine with Err set on failure.
//
// The same record carries a removed file's discards down the same queue
// (Discard non-nil, Data nil): what the store holds of a file goes back
// behind the last write the file queued, through the one path that
// orders writes.
type WriteBack struct {
	ID    cache.BlockID
	Data  []byte
	Owner int   // owner to charge the WriteBacks counter to
	Err   error // set by the executor on store write failure

	// Discard, when non-nil, makes this a discard: the removed file
	// ID.File's whole extent, blocks 0 to its size, for the executor to
	// pass to disk.Discard in place of the write. Older write-backs of
	// these very blocks may still be queued anywhere ahead of it, so a
	// discard is always Conflict.
	Discard []disk.BlockSpan

	// Conflict reports that an older write-back for the same block was
	// still pending when this one was enqueued — or that the file was
	// created over the name of one whose discard is still queued, which
	// on a store keyed by name is the same block — or that this is a
	// discard or a barrier. The executor must not let it reach the store
	// before anything queued earlier (a reordering would persist stale
	// bytes, or discard fresh ones), however full its queue is; the
	// kernel's pending table always forwards the newest data, so
	// queue-order execution is sufficient.
	Conflict bool
	// Stalled marks a write-back the executor degraded to a synchronous
	// inline write because its queue was full (the backpressure rule).
	Stalled bool

	// slot is the victim's detached cache slot backing Data, released to
	// the slot pool by CompleteWriteBack. nil for a write-back whose
	// bytes ride a leaked mid-fill slot instead (applyWrite's detached
	// path).
	slot *cache.Slot
	name string // of a discard: the removed file's name

	// failed collects a released file's write-back failure for the
	// release; released, on the release's barrier, completes it.
	failed   *error
	released func()
}

// Barrier reports whether wb is a release's barrier (ReleaseFile): it
// names no block and writes nothing, and completes the release once
// every write-back queued ahead of it has landed. An executor batches it
// with nothing, and never runs it inline (it is always Conflict).
func (wb *WriteBack) Barrier() bool { return wb.released != nil }

// flushVictim hands an evicted dirty block to the write-back path. The
// victim carries a detached slot exactly when it was dirty with valid
// bytes; writeBack releases the slot once the bytes are safe.
func (l *Live) flushVictim(v *cache.Victim) error {
	if v == nil || v.Slot == nil {
		return nil
	}
	return l.writeBack(v.ID, v.Slot, v.Slot.Data(), v.Owner, nil)
}

// writeBack persists one evicted block's bytes. With a StartWriteBack
// executor the write is asynchronous: the kernel records the newest
// pending bytes per block (stageFill forwards from them) and the
// executor re-enters through CompleteWriteBack. Without one the write
// runs inline, and a failure is surfaced — counted, wrapped in
// ErrWriteBack, never a panic — to the request that forced the eviction.
// An asynchronous failure goes to failed when that is non-nil.
func (l *Live) writeBack(id cache.BlockID, sl *cache.Slot, data []byte, owner int, failed *error) error {
	if swb := l.cfg.StartWriteBack; swb != nil {
		wb := &WriteBack{ID: id, Data: data, Owner: owner, slot: sl, failed: failed}
		_, wb.Conflict = l.pendingWB[id]
		if l.shadowed[id.File] != nil {
			wb.Conflict = true
		}
		l.pendingWB[id] = wb
		l.wbOutstanding++
		l.fill.WritebacksQueued++
		if l.wbOutstanding > l.fill.WritebackQueueHighWater {
			l.fill.WritebackQueueHighWater = l.wbOutstanding
		}
		swb(wb)
		return nil
	}
	err := l.store.WriteBlock(int32(id.File), id.Num, data)
	if sl != nil {
		l.bc.ReleaseSlot(sl)
	}
	if err != nil {
		l.fill.WritebackErrors++
		return fmt.Errorf("%w: block %v: %v", ErrWriteBack, id, err)
	}
	l.charge(owner, func(st *ProcStats) { st.WriteBacks++ })
	return nil
}

// CompleteWriteBack applies a finished asynchronous write-back. Must be
// called by the kernel's holder. The pending entry is removed only if
// it is still this write-back's: a newer eviction of the same block owns
// the forwarding slot (and the executor's queue order guarantees its
// bytes reach the store last).
//
// A finished discard moves none of the write-back counters: it lets the
// file that took the name (if one did) out of the discard's shadow and
// counts the blocks given back. A finished barrier completes its
// release.
func (l *Live) CompleteWriteBack(wb *WriteBack) {
	if wb.Barrier() {
		wb.released()
		return
	}
	if wb.Discard != nil {
		if l.discarding[wb.name] == wb {
			delete(l.discarding, wb.name)
			if f, ok := l.fsys.Lookup(wb.name); ok && l.shadowed[f.ID()] == wb {
				delete(l.shadowed, f.ID())
			}
		}
		if wb.Err != nil {
			l.fill.WritebackErrors++
			return
		}
		l.fill.DiscardedBlocks += int64(len(wb.Discard))
		return
	}
	if l.pendingWB[wb.ID] == wb {
		delete(l.pendingWB, wb.ID)
	}
	if wb.slot != nil {
		l.bc.ReleaseSlot(wb.slot)
		wb.slot = nil
	}
	l.wbOutstanding--
	if wb.Stalled {
		l.fill.WritebackStalls++
	}
	if wb.Err != nil {
		l.fill.WritebackErrors++
		if wb.failed != nil && *wb.failed == nil {
			*wb.failed = fmt.Errorf("%w: block %v: %v", ErrWriteBack, wb.ID, wb.Err)
		}
		return
	}
	l.charge(wb.Owner, func(st *ProcStats) { st.WriteBacks++ })
}

// CountWritebackBatches records n multi-block write-behind batches
// retired with vectored store writes. The kernel's holder only.
func (l *Live) CountWritebackBatches(n int) {
	l.fill.WritebackBatches += int64(n)
}

// FlushDirty writes back every dirty block older than cutoff (pass
// MaxTime for all), the update-daemon analogue. Writes run synchronously
// — callers flush at quiesce points (shutdown, after the write-behind
// queue has drained). Returns blocks written and the first store error;
// later blocks are still attempted so one bad write cannot strand the
// rest dirty.
func (l *Live) FlushDirty(cutoff sim.Time) (int, error) {
	n := 0
	var firstErr error
	for _, b := range l.bc.DirtyOlderThan(cutoff) {
		if b.Slot == nil {
			l.bc.Clean(b)
			continue
		}
		// Reading the slot for the store write is safe against pinned
		// in-flight frames (reads both); the kernel's holder is the only
		// writer.
		if err := l.store.WriteBlock(int32(b.ID.File), b.ID.Num, b.Slot.Data()); err != nil {
			l.fill.WritebackErrors++
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: block %v: %v", ErrWriteBack, b.ID, err)
			}
			continue
		}
		l.bc.Clean(b)
		l.charge(b.Owner, func(st *ProcStats) { st.WriteBacks++ })
		n++
	}
	return n, firstErr
}

// MaxTime is a cutoff that matches every dirty block.
const MaxTime = sim.Time(math.MaxInt64)

// Close flushes all dirty blocks and closes the store. Any asynchronous
// write-backs must have drained first (the server's shutdown barrier).
func (l *Live) Close() error {
	_, err := l.FlushDirty(MaxTime)
	if cerr := l.store.Close(); err == nil {
		err = cerr
	}
	return err
}
