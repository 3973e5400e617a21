package core

import (
	"bytes"

	"repro/internal/cache"
	"repro/internal/fs"
)

// ReadReply receives a completed Read. The server's hot path implements
// it with pooled descriptors so that a read allocates nothing, hit or
// miss (a func-typed callback parameter would escape — and so
// heap-allocate a closure — at every call site, because the miss path
// stores it in the fill's waiter list). Read is the func-based
// convenience wrapper.
type ReadReply interface {
	// ReadDone receives the whole block's bytes (the receiver slices
	// [off, off+size)), whether the access hit, and any I/O error. It
	// runs while the kernel is held — inline for hits and synchronous
	// fills, later, inside CompleteFill, for asynchronous ones.
	ReadDone(data []byte, hit bool, err error)
}

// funcReply adapts a plain callback to ReadReply. Func values are
// pointer-shaped, so the interface conversion does not allocate.
type funcReply func(data []byte, hit bool, err error)

func (f funcReply) ReadDone(data []byte, hit bool, err error) { f(data, hit, err) }

// Read is ReadTo with a func callback; see ReadTo.
func (l *Live) Read(owner int, fid fs.FileID, blk int32, off, size int, done func(data []byte, hit bool, err error)) bool {
	return l.ReadTo(owner, fid, blk, off, size, funcReply(done))
}

// ReadTo reads size bytes at offset off within block blk, delivering the
// result through reply. The returned bool reports whether ReadDone
// already ran (false: an asynchronous fill will run it later, inside
// CompleteFill).
//
// The counter updates replicate Proc.Access exactly (with read-ahead
// off): ReadCalls, then Hits, or Misses + DemandReads with the insert
// protocol between them.
func (l *Live) ReadTo(owner int, fid fs.FileID, blk int32, off, size int, reply ReadReply) bool {
	o, err := l.owner(owner)
	if err != nil {
		reply.ReadDone(nil, false, err)
		return true
	}
	f, ok := l.fsys.ByID(fid)
	if !ok || f.Removed() {
		reply.ReadDone(nil, false, ErrNotFound)
		return true
	}
	if blk < 0 || int(blk) >= f.Size() || off < 0 || size < 0 || off+size > BlockSize {
		reply.ReadDone(nil, false, ErrOutOfRange)
		return true
	}
	o.stats.ReadCalls++
	now := l.advance()
	id := cache.BlockID{File: fid, Num: blk}
	if b := l.lookup(id, owner, off, size); b != nil {
		o.stats.Hits++
		if b.Busy(now) {
			// Fill still in flight: coalesce onto it, as waitValid would.
			if fl := l.mshr[id]; fl != nil && fl.buf == b {
				l.fill.CoalescedMisses++
				l.addWaiter(fl, reply, true, nil)
				l.noteSequential(owner, f, blk, now)
				return false
			}
		}
		reply.ReadDone(b.Slot.Data(), true, nil)
		l.noteSequential(owner, f, blk, now)
		return true
	}
	o.stats.Misses++
	buf, victim := l.bc.Insert(id, owner, now)
	werr := l.flushVictim(victim)
	buf.Referenced = true
	o.stats.DemandReads++
	fl := l.newFill(buf)
	l.addWaiter(fl, reply, false, werr) // werr: the eviction this miss forced lost data
	l.dispatchFills(fl.run())
	done := fl.done // read before noteSequential can take the record again
	l.noteSequential(owner, f, blk, now)
	return done
}

// Write writes payload at offset off within block blk, growing the file
// as needed. Whole-block writes (off 0, full payload) never read; a
// partial write to an uncached, pre-existing block is a read-modify-
// write. done reports hit and error as for Read.
//
// payload is borrowed for the call only, as the caller's buffer is in
// write(2): a write that must wait on a fill (a read-modify-write miss,
// or a write joining a fill in flight) keeps a copy, so the caller may
// reuse the buffer as soon as Write returns, whatever it returned.
//
// Counter updates replicate Proc.WriteAccess / Proc.Write exactly.
func (l *Live) Write(owner int, fid fs.FileID, blk int32, off int, payload []byte, done func(hit bool, err error)) bool {
	o, err := l.owner(owner)
	if err != nil {
		done(false, err)
		return true
	}
	f, ok := l.fsys.ByID(fid)
	if !ok || f.Removed() {
		done(false, ErrNotFound)
		return true
	}
	if blk < 0 || off < 0 || off+len(payload) > BlockSize || len(payload) == 0 {
		done(false, ErrOutOfRange)
		return true
	}
	o.stats.WriteCalls++
	whole := off == 0 && len(payload) == BlockSize
	grew := false
	if int(blk) >= f.Size() {
		if err := l.fsys.Grow(f, int(blk)+1); err != nil {
			done(false, err)
			return true
		}
		grew = true
	}
	now := l.advance()
	id := cache.BlockID{File: fid, Num: blk}
	b := l.lookup(id, owner, off, len(payload))
	if b != nil {
		o.stats.Hits++
		if b.Busy(now) {
			if fl := l.mshr[id]; fl != nil && fl.buf == b {
				l.fill.CoalescedMisses++
				payload := bytes.Clone(payload)
				l.addWaiter(fl, funcReply(func(_ []byte, _ bool, err error) {
					done(true, l.applyWrite(b, fl, off, payload, err))
				}), true, nil)
				return false
			}
		}
		copy(l.exclusiveData(b)[off:], payload)
		l.bc.MarkDirty(b, l.Now())
		done(true, nil)
		return true
	}
	o.stats.Misses++
	b, victim := l.bc.Insert(id, owner, now)
	werr := l.flushVictim(victim)
	b.Referenced = true
	if !whole && !grew {
		// Read-modify-write: fetch the rest of the block first.
		o.stats.DemandReads++
		fl := l.newFill(b)
		payload := bytes.Clone(payload)
		l.addWaiter(fl, funcReply(func(_ []byte, _ bool, err error) {
			done(false, l.applyWrite(b, fl, off, payload, err))
		}), false, werr)
		l.dispatchFills(fl.run())
		return fl.done
	}
	data := b.Slot.Data()
	if !whole {
		// A grown block's unwritten bytes read as zeros; the recycled
		// slot may hold stale ones.
		clear(data)
	}
	copy(data[off:], payload)
	l.bc.MarkDirty(b, l.Now())
	done(false, werr)
	return true
}

// exclusiveData returns b's bytes writable by the kernel's holder: if
// the block's slot is pinned by in-flight response frames the block
// moves to a fresh copy first (the frames keep reading the bytes they
// were served), counted as the zero-copy path's fallback.
func (l *Live) exclusiveData(b *cache.Buf) []byte {
	data, cowed := l.bc.ExclusiveData(b)
	if cowed {
		l.fill.WireCopyFallbacks++
	}
	return data
}

// CountWireFallback records a serve-path copy the server had to take (a
// response whose buffer was evicted mid-fill is served from the detached
// bytes). The kernel's holder only.
func (l *Live) CountWireFallback() { l.fill.WireCopyFallbacks++ }

// applyWrite lands a write that was waiting on a fill. When the buffer
// survived, the payload goes into the block's *current* slot (which
// exclusiveData may just have moved off a pinned one — never into
// fl.Data, whose slot could be the frozen pre-write copy); if the buffer
// was evicted mid-fill the bytes write through via the write-back path —
// never the store directly, so a queued write-behind of the same block
// cannot land after (and clobber) this fresher data. If the buffer went
// because the file did, the write goes where the file's dirty blocks
// went: Remove has queued the file's discards, and a block written
// behind them would stay on the store for ever.
func (l *Live) applyWrite(b *cache.Buf, fl *Fill, off int, payload []byte, err error) error {
	if err != nil {
		return err
	}
	if l.bc.Peek(fl.ID) == b {
		copy(l.exclusiveData(b)[off:], payload)
		l.bc.MarkDirty(b, l.Now())
		return nil
	}
	if _, ok := l.fsys.ByID(fl.ID.File); !ok {
		return nil
	}
	copy(fl.Data[off:], payload)
	return l.writeBack(fl.ID, nil, fl.Data, cache.NoOwner, nil)
}
