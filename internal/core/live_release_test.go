package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
)

// TestLiveReleaseFile: releasing a file writes its dirty blocks back and
// drops every cached block of it, and its completion runs only once the
// bytes are at the store: inline without a write-behind executor, and
// with one only when the barrier queued behind the write-backs has run.
// A neighbour's blocks stay cached, the name still opens and reads its
// bytes back from the store, and an unknown name is not_found with no
// store call.
func TestLiveReleaseFile(t *testing.T) {
	for _, behind := range []bool{false, true} {
		t.Run(fmt.Sprintf("write-behind=%v", behind), func(t *testing.T) {
			mem := disk.NewMemStore()
			store := &callCountStore{Store: mem}
			ex := &wbQueue{store: store}
			cfg := core.LiveConfig{CacheBytes: 8 * core.BlockSize, Alloc: cache.LRUSP, Store: store}
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
			g, err := l.Create(ow, "g", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for blk := int32(0); blk < 4; blk++ {
				mustWrite(t, l, ow, f, blk, 0, blockOf(byte(0xa0+blk)))
			}
			mustWrite(t, l, ow, g, 0, 0, blockOf(0x90))
			if n := store.calls.Load(); n != 0 || len(ex.q) != 0 {
				t.Fatalf("five blocks in an 8-block cache made %d store calls and queued %d write-backs", n, len(ex.q))
			}
			l.CheckInvariants()

			ran := false
			l.ReleaseFile(ow, "f", func(err error) {
				ran = true
				if err != nil {
					t.Errorf("release: %v", err)
				}
				if got := mem.BlocksOf(int32(f.ID())); got != 4 {
					t.Errorf("release completed with %d of f's 4 dirty blocks at the store", got)
				}
			})
			l.CheckInvariants()
			if behind {
				if ran || len(ex.q) != 5 {
					t.Fatalf("with write-behind: completed %v with %d records queued, want not yet with 4 write-backs and 1 more", ran, len(ex.q))
				}
				ex.run(t, 4)
				if ran {
					t.Fatal("the release completed before the barrier queued behind its write-backs ran")
				}
				l.CheckInvariants()
				ex.run(t, 1)
			}
			if !ran {
				t.Fatal("the release never completed")
			}
			for _, id := range l.Cache().GlobalOrder() {
				if id.File == f.ID() {
					t.Errorf("block %v of the released file is still cached", id)
				}
			}
			if l.Cache().Peek(cache.BlockID{File: g.ID(), Num: 0}) == nil {
				t.Error("the neighbour's block left the cache with the release")
			}
			if st, _ := l.OwnerStats(ow); st.WriteBacks != 4 {
				t.Errorf("owner WriteBacks = %d, want 4", st.WriteBacks)
			}
			l.CheckInvariants()

			if h, err := l.Open(ow, "f"); err != nil || h.ID() != f.ID() || h.Size() != 4 {
				t.Fatalf("open after the release: %v, %v", h, err)
			}
			l.Read(ow, f.ID(), 2, 0, core.BlockSize, func(data []byte, hit bool, err error) {
				if err != nil || hit || !bytes.Equal(data, blockOf(0xa2)) {
					t.Errorf("read of block 2 after the release: hit %v, err %v, right bytes %v", hit, err, bytes.Equal(data, blockOf(0xa2)))
				}
			})
			l.CheckInvariants()

			calls := store.calls.Load()
			ran = false
			l.ReleaseFile(ow, "nope", func(err error) {
				ran = true
				if !errors.Is(err, core.ErrNotFound) {
					t.Errorf("release of an unknown name: %v, want ErrNotFound", err)
				}
			})
			if !ran || len(ex.q) != 0 || store.calls.Load() != calls {
				t.Errorf("release of an unknown name: completed %v, %d records queued, %d store calls",
					ran, len(ex.q), store.calls.Load()-calls)
			}
			l.CheckInvariants()
		})
	}
}

// failWrites fails every write.
type failWrites struct{ disk.Store }

var errWriteDown = errors.New("store write down")

func (failWrites) WriteBlock(file, blk int32, src []byte) error { return errWriteDown }

// TestLiveReleaseFileWriteFailure: a write-back of the released file that
// the store refuses fails the release with ErrWriteBack, inline or when
// it lands later ahead of the release's barrier.
func TestLiveReleaseFileWriteFailure(t *testing.T) {
	for _, behind := range []bool{false, true} {
		t.Run(fmt.Sprintf("write-behind=%v", behind), func(t *testing.T) {
			store := failWrites{disk.NewMemStore()}
			var q []*core.WriteBack
			cfg := core.LiveConfig{CacheBytes: 8 * core.BlockSize, Alloc: cache.LRUSP, Store: store}
			if behind {
				cfg.StartWriteBack = func(wb *core.WriteBack) { q = append(q, wb) }
			}
			l := core.NewLive(cfg)
			ow := l.AddOwner("t")
			f, err := l.Create(ow, "f", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			mustWrite(t, l, ow, f, 0, 0, blockOf(1))
			var got error
			ran := false
			l.ReleaseFile(ow, "f", func(err error) { ran, got = true, err })
			for _, wb := range q { // the executor, in queue order
				if !wb.Barrier() {
					wb.Err = store.WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
				}
				l.CompleteWriteBack(wb)
			}
			if !ran || !errors.Is(got, core.ErrWriteBack) {
				t.Errorf("release over a failing store: completed %v, %v; want ErrWriteBack", ran, got)
			}
			l.CheckInvariants()
		})
	}
}
