package core_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
)

// callCountStore counts every call into the store.
type callCountStore struct {
	disk.Store
	calls atomic.Int64
}

func (s *callCountStore) ReadBlock(file, blk int32, dst []byte) error {
	s.calls.Add(1)
	return s.Store.ReadBlock(file, blk, dst)
}

func (s *callCountStore) WriteBlock(file, blk int32, src []byte) error {
	s.calls.Add(1)
	return s.Store.WriteBlock(file, blk, src)
}

func blockOf(fill byte) []byte { return bytes.Repeat([]byte{fill}, core.BlockSize) }

func mustWrite(t *testing.T, l *core.Live, ow int, f *fs.File, blk int32, off int, payload []byte) {
	t.Helper()
	done := false
	l.Write(ow, f.ID(), blk, off, payload, func(_ bool, err error) {
		done = true
		if err != nil {
			t.Fatalf("write blk %d: %v", blk, err)
		}
	})
	if !done {
		t.Fatalf("write blk %d did not complete inline", blk)
	}
}

// TestLiveRemoveDiscardsInline is the kernel's synchronous mode (no
// write-behind executor, the oracle's): a removed file's blocks leave the
// store before Remove returns, whichever path put them there — the
// inline write-back at eviction or FlushDirty — a neighbour's stay, and
// no write-back counter moves. A remove gives back the file's whole
// extent, whatever of it reached the store, and an empty file costs no
// store call at all.
func TestLiveRemoveDiscardsInline(t *testing.T) {
	mem := disk.NewMemStore()
	store := &callCountStore{Store: mem}
	l := core.NewLive(core.LiveConfig{CacheBytes: 8 * core.BlockSize, Alloc: cache.LRUSP, Store: store})
	ow := l.AddOwner("t")
	f, err := l.Create(ow, "f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := l.Create(ow, "g", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for blk := int32(0); blk < 16; blk++ {
		mustWrite(t, l, ow, f, blk, 0, blockOf(0xf0)) // twice the cache: eight go out at eviction
	}
	for blk := int32(0); blk < 4; blk++ {
		mustWrite(t, l, ow, g, blk, 0, blockOf(0x90))
	}
	if _, err := l.FlushDirty(core.MaxTime); err != nil { // the rest, by the other path
		t.Fatal(err)
	}
	if nf, ng := mem.BlocksOf(int32(f.ID())), mem.BlocksOf(int32(g.ID())); nf != 16 || ng != 4 {
		t.Fatalf("before the remove the store holds %d blocks of f and %d of g, want 16 and 4", nf, ng)
	}
	before, _ := l.OwnerStats(ow)
	fillBefore := l.Snapshot().Fill

	if err := l.Remove(ow, "f"); err != nil {
		t.Fatal(err)
	}
	if nf, ng := mem.BlocksOf(int32(f.ID())), mem.BlocksOf(int32(g.ID())); nf != 0 || ng != 4 {
		t.Errorf("after the remove the store holds %d blocks of f and %d of g, want 0 and 4", nf, ng)
	}
	after, _ := l.OwnerStats(ow)
	fill := l.Snapshot().Fill
	if fill.DiscardedBlocks != 16 {
		t.Errorf("DiscardedBlocks = %d, want 16", fill.DiscardedBlocks)
	}
	fill.DiscardedBlocks = fillBefore.DiscardedBlocks
	if fill != fillBefore || after != before {
		t.Errorf("the remove moved counters besides DiscardedBlocks:\n fill %+v -> %+v\n owner %+v -> %+v", fillBefore, fill, before, after)
	}
	l.CheckInvariants()

	// A file that never reached the store — created and removed, or
	// written and removed while still wholly cached — still gives back
	// its whole extent: the store, not this kernel, knows what it holds
	// of a name another kernel may have written. This store has no batch
	// path, so that is one call a block.
	calls := store.calls.Load()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("empty%d", i)
		e, err := l.Create(ow, name, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			mustWrite(t, l, ow, e, 0, 0, blockOf(0x11))
		}
		if err := l.Remove(ow, name); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.calls.Load() - calls; got != 12 {
		t.Errorf("removing three 4-block files made %d store calls, want 12", got)
	}
	if got := l.Snapshot().Fill.DiscardedBlocks; got != 28 {
		t.Errorf("DiscardedBlocks = %d after removing three 4-block files, want 16+12", got)
	}
	calls = store.calls.Load()
	if _, err := l.Create(ow, "empty", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(ow, "empty"); err != nil {
		t.Fatal(err)
	}
	if got := store.calls.Load() - calls; got != 0 {
		t.Errorf("removing an empty file made %d store calls, want 0", got)
	}
	l.CheckInvariants()
}

// wbQueue is a manual write-behind executor: it holds what the kernel
// hands it and, on run, does what the server's write-behind does — in queue
// order, a write for a write-back and disk.Discard for a discard — then
// re-enters the kernel.
type wbQueue struct {
	l     *core.Live
	store disk.Store
	q     []*core.WriteBack
}

func (e *wbQueue) start(wb *core.WriteBack) { e.q = append(e.q, wb) }

func (e *wbQueue) run(t *testing.T, n int) {
	t.Helper()
	for ; n > 0; n-- {
		wb := e.q[0]
		e.q = e.q[1:]
		switch {
		case wb.Discard != nil:
			wb.Err = disk.Discard(e.store, wb.Discard)
		case !wb.Barrier():
			wb.Err = e.store.WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
		}
		if wb.Err != nil {
			t.Fatalf("executor: %v", wb.Err)
		}
		e.l.CompleteWriteBack(wb)
	}
}

// TestLiveRemoveQueuesDiscardBehindWrites: with a write-behind executor a
// remove makes no store call; it hands the executor one record naming
// every block of the file's extent — those whose write-backs are still
// queued included — after them in the queue, and moves no write-back
// counter doing so. Run in queue order, the store ends with
// nothing of the file.
func TestLiveRemoveQueuesDiscardBehindWrites(t *testing.T) {
	mem := disk.NewMemStore()
	store := &callCountStore{Store: mem}
	ex := &wbQueue{store: store}
	l := core.NewLive(core.LiveConfig{
		CacheBytes:     4 * core.BlockSize,
		Alloc:          cache.LRUSP,
		Store:          store,
		StartWriteBack: ex.start,
	})
	ex.l = l
	ow := l.AddOwner("t")
	f, err := l.Create(ow, "f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for blk := int32(0); blk < 10; blk++ {
		mustWrite(t, l, ow, f, blk, 0, blockOf(byte(blk)))
	}
	if len(ex.q) != 6 {
		t.Fatalf("%d write-backs queued, want 6", len(ex.q))
	}
	ex.run(t, 2) // two land; four are still queued when the remove comes
	fillBefore := l.Snapshot().Fill
	pending, calls := l.PendingWriteBacks(), store.calls.Load()

	if err := l.Remove(ow, "f"); err != nil {
		t.Fatal(err)
	}
	if got := store.calls.Load() - calls; got != 0 {
		t.Errorf("the remove made %d store calls inline, want 0", got)
	}
	if len(ex.q) != 5 {
		t.Fatalf("%d records queued after the remove, want the 4 write-backs and 1 discard", len(ex.q))
	}
	d := ex.q[4]
	if d.Data != nil || len(d.Discard) != 10 || d.ID.File != f.ID() {
		t.Fatalf("last record is %+v, want a discard of f's 10-block extent", d)
	}
	if !d.Conflict {
		t.Error("the discard is not Conflict: a full queue could run it ahead of the writes it follows")
	}
	for i, sp := range d.Discard {
		if sp.File != int32(f.ID()) || sp.Blk != int32(i) {
			t.Errorf("Discard[%d] = %+v, want block %d of file %d", i, sp, i, f.ID())
		}
	}
	if fill := l.Snapshot().Fill; fill != fillBefore || l.PendingWriteBacks() != pending {
		t.Errorf("queueing the discard moved counters: %+v -> %+v, pending %d -> %d", fillBefore, fill, pending, l.PendingWriteBacks())
	}
	l.CheckInvariants()

	ex.run(t, 4)
	if got := mem.BlocksOf(int32(f.ID())); got != 6 {
		t.Fatalf("store holds %d blocks of f with only the discard left to run, want 6", got)
	}
	ex.run(t, 1)
	if got := mem.Blocks(); got != 0 {
		t.Errorf("store holds %d blocks once the queue has run, want 0", got)
	}
	fill := l.Snapshot().Fill
	if fill.DiscardedBlocks != 10 || fill.WritebacksQueued != 6 || fill.WritebackQueueHighWater != 6 {
		t.Errorf("fill stats %+v: want 10 discarded, 6 queued, high water 6", fill)
	}
	if st, _ := l.OwnerStats(ow); st.WriteBacks != 6 {
		t.Errorf("owner WriteBacks = %d, want 6 (a discard is nobody's write-back)", st.WriteBacks)
	}
	l.CheckInvariants()
}

// TestLiveWriteAfterRemovePersistsNothing: a partial write is waiting on
// its read-modify-write fill when the file is removed; when the fill
// lands, the buffer is gone and the write would go through to the store
// — behind the file's discards, to stay for ever. It must see that the
// file is gone: the writer gets its reply, the store gets nothing.
func TestLiveWriteAfterRemovePersistsNothing(t *testing.T) {
	for _, behind := range []bool{false, true} {
		t.Run(fmt.Sprintf("write-behind=%v", behind), func(t *testing.T) {
			mem := disk.NewMemStore()
			ex := &wbQueue{store: mem}
			var held []*core.Fill
			cfg := core.LiveConfig{
				CacheBytes: 4 * core.BlockSize,
				Alloc:      cache.LRUSP,
				Store:      mem,
				StartFill:  func(fls []*core.Fill) { held = append(held, fls...) },
			}
			if behind {
				cfg.StartWriteBack = ex.start
			}
			l := core.NewLive(cfg)
			ex.l = l
			ow := l.AddOwner("t")
			f, err := l.Create(ow, "f", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for blk := int32(0); blk < 8; blk++ { // four reach the store
				mustWrite(t, l, ow, f, blk, 0, blockOf(0x77))
			}
			ex.run(t, len(ex.q))
			if got := mem.BlocksOf(int32(f.ID())); got != 4 {
				t.Fatalf("store holds %d blocks of f, want 4", got)
			}

			// Block 0 is on the store and out of the cache: a partial
			// write must fetch it first.
			replied, reads := false, false
			if l.Write(ow, f.ID(), 0, 16, []byte("late"), func(_ bool, err error) {
				replied = true
				if err != nil {
					t.Errorf("the writer's reply: %v", err)
				}
			}) {
				t.Fatal("partial write to an uncached block completed without a fill")
			}
			l.Read(ow, f.ID(), 0, 0, 8, func(_ []byte, _ bool, err error) {
				reads = true
				if err != nil {
					t.Errorf("the reader's reply: %v", err)
				}
			})
			if len(held) != 1 {
				t.Fatalf("%d fills started, want 1 (the read joins it)", len(held))
			}

			if err := l.Remove(ow, "f"); err != nil {
				t.Fatal(err)
			}
			queued := len(ex.q)
			held[0].Err = mem.ReadBlock(int32(f.ID()), 0, held[0].Data)
			l.CompleteFill(held[0])
			if !replied || !reads {
				t.Fatalf("waiters not answered: writer %v, reader %v", replied, reads)
			}
			if len(ex.q) != queued {
				t.Errorf("the landed write queued %d write-backs behind the file's discard", len(ex.q)-queued)
			}
			ex.run(t, len(ex.q))
			if got := mem.Blocks(); got != 0 {
				t.Errorf("store holds %d blocks after the remove, want 0", got)
			}
			l.CheckInvariants()
		})
	}
}

// oneNameStore keys blocks by number alone, as a store keyed by file name
// does when every file it is shown has had the same name.
type oneNameStore struct{ disk.Store }

func (s oneNameStore) ReadBlock(_, blk int32, dst []byte) error {
	return s.Store.ReadBlock(0, blk, dst)
}
func (s oneNameStore) WriteBlock(_, blk int32, src []byte) error {
	return s.Store.WriteBlock(0, blk, src)
}

// TestLiveRecreatedNameWaitsForDiscard: file ids are never reused but
// names are, and the cluster's origin is keyed by name. A file created
// over a name whose discard is still queued must not see the dead file's
// blocks (a fill of a block it has not written is zeros, with no store
// read), and must not lose its own to that discard (its write-backs are
// Conflict, so they queue behind it). Once the discard has landed the
// file is an ordinary one.
func TestLiveRecreatedNameWaitsForDiscard(t *testing.T) {
	mem := disk.NewMemStore()
	store := oneNameStore{mem}
	ex := &wbQueue{store: store}
	l := core.NewLive(core.LiveConfig{
		CacheBytes:     2 * core.BlockSize,
		Alloc:          cache.LRUSP,
		Store:          store,
		StartWriteBack: ex.start,
	})
	ex.l = l
	ow := l.AddOwner("t")
	read := func(fid fs.FileID, blk int32) []byte {
		t.Helper()
		var got []byte
		l.Read(ow, fid, blk, 0, core.BlockSize, func(data []byte, _ bool, err error) {
			if err != nil {
				t.Fatalf("read blk %d: %v", blk, err)
			}
			got = append([]byte(nil), data...)
		})
		if got == nil {
			t.Fatalf("read blk %d did not complete inline", blk)
		}
		return got
	}

	first, err := l.Create(ow, "foo", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for blk := int32(0); blk < 4; blk++ {
		mustWrite(t, l, ow, first, blk, 0, blockOf(0xa0))
	}
	ex.run(t, len(ex.q)) // blocks 0 and 1 of the first foo are on the store
	if err := l.Remove(ow, "foo"); err != nil {
		t.Fatal(err)
	}
	if len(ex.q) != 1 || ex.q[0].Discard == nil {
		t.Fatalf("queue after the remove: %+v, want the one discard", ex.q)
	}

	second, err := l.Create(ow, "foo", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID() == first.ID() {
		t.Fatal("file id reused")
	}
	reads := l.Snapshot().Fill.StoreReads
	if got := read(second.ID(), 0); !bytes.Equal(got, make([]byte, core.BlockSize)) {
		t.Errorf("the new foo's unwritten block 0 reads %x.., want zeros (the dead file's bytes are still on the store)", got[0])
	}
	if got := l.Snapshot().Fill.StoreReads; got != reads {
		t.Errorf("%d store reads for a block of a file in a discard's shadow, want 0", got-reads)
	}
	l.CheckInvariants()

	mustWrite(t, l, ow, second, 0, 0, blockOf(0xb0))
	mustWrite(t, l, ow, second, 2, 0, blockOf(0xb2))
	mustWrite(t, l, ow, second, 3, 0, blockOf(0xb3)) // evicts block 0, dirty
	if len(ex.q) != 2 || ex.q[1].ID.File != second.ID() || ex.q[1].ID.Num != 0 {
		t.Fatalf("queue: %+v, want the discard and the new foo's block 0", ex.q)
	}
	if !ex.q[1].Conflict {
		t.Error("a write-back of the new foo, queued behind the old foo's discard, is not Conflict: a full queue could run it first and the discard would then take it")
	}
	if got := read(second.ID(), 0); !bytes.Equal(got, blockOf(0xb0)) {
		t.Errorf("the new foo's block 0 reads %x.. while its write-back is queued, want b0", got[0])
	}
	l.CheckInvariants()

	ex.run(t, len(ex.q))
	if got := read(second.ID(), 0); !bytes.Equal(got, blockOf(0xb0)) {
		t.Errorf("the new foo's block 0 reads %x.. once the queue has run, want b0", got[0])
	}
	reads = l.Snapshot().Fill.StoreReads
	if got := read(second.ID(), 1); !bytes.Equal(got, make([]byte, core.BlockSize)) {
		t.Errorf("the new foo's unwritten block 1 reads %x.. after the discard landed, want zeros", got[0])
	}
	if got := l.Snapshot().Fill.StoreReads; got != reads+1 {
		t.Errorf("%d store reads for a block of an ordinary file, want 1", got-reads)
	}
	l.CheckInvariants()
}

// TestLiveFileRecordsFollowFiles: a session that keeps control and churns
// files — sort's temporaries — holds priority records for the files that
// exist, not for every file it ever prioritised. 600 is past
// acm.DefaultLimits.MaxFileRecords.
func TestLiveFileRecordsFollowFiles(t *testing.T) {
	l := core.NewLive(core.LiveConfig{CacheBytes: 8 * core.BlockSize, Alloc: cache.LRUSP})
	ow := l.AddOwner("sort")
	if err := l.EnableControl(ow); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		name := fmt.Sprintf("tmp%d", i)
		f, err := l.Create(ow, name, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SetPriority(ow, f.ID(), 1); err != nil {
			t.Fatalf("set_priority on file %d of the session: %v", i+1, err)
		}
		mustWrite(t, l, ow, f, 0, 0, blockOf(1))
		if err := l.Remove(ow, name); err != nil {
			t.Fatal(err)
		}
	}
	l.CheckInvariants()
}
