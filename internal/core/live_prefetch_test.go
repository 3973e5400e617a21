package core_test

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fs"
)

// TestLivePrefetchHitAccounting pins what PrefetchHits counts, with a
// manual executor so every fill is in flight until the test lands it:
// the first demand touch of a read-ahead block, and nothing else. A touch
// of a completed prefetch counts one, a demand read that joins an
// in-flight prefetch counts one, a second touch counts none; a prefetch
// evicted before its first touch, one whose fill fails, and the blocks
// of a removed file count none, and re-reading any of them is a miss.
func TestLivePrefetchHitAccounting(t *testing.T) {
	type result struct {
		hit, done bool
		err       error
	}
	// setup returns a depth-2 read-ahead kernel of cacheBlocks blocks with
	// one owner, a read helper, and land, which completes every held fill
	// (failing those fail picks).
	setup := func(cacheBlocks int) (*core.Live, int, func(fs.FileID, int32) *result, func(fail func(*core.Fill) bool)) {
		l, held := holdFills(core.LiveConfig{
			CacheBytes:     int64(cacheBlocks) * core.BlockSize,
			Alloc:          cache.LRUSP,
			ReadAhead:      true,
			ReadAheadDepth: 2,
		})
		ow := l.AddOwner("t")
		read := func(fid fs.FileID, blk int32) *result {
			r := &result{}
			l.Read(ow, fid, blk, 0, 8, func(_ []byte, hit bool, err error) { *r = result{hit, true, err} })
			return r
		}
		land := func(fail func(*core.Fill) bool) {
			fls := *held
			*held = nil
			for _, fl := range fls {
				if fail != nil && fail(fl) {
					fl.Err = errBoom
				}
				l.CompleteFill(fl)
			}
		}
		return l, ow, read, land
	}
	create := func(t *testing.T, l *core.Live, ow int, name string, blocks int) fs.FileID {
		t.Helper()
		f, err := l.Create(ow, name, 0, blocks)
		if err != nil {
			t.Fatal(err)
		}
		return f.ID()
	}
	wantHits := func(t *testing.T, l *core.Live, want int64) {
		t.Helper()
		if got := l.Snapshot().Fill.PrefetchHits; got != want {
			t.Fatalf("PrefetchHits = %d, want %d", got, want)
		}
	}
	// scanTwo reads blocks 0 and 1 of fid, landing each: the second read
	// extends a run, so blocks 2 and 3 are prefetched and left in flight.
	scanTwo := func(read func(fs.FileID, int32) *result, land func(func(*core.Fill) bool), fid fs.FileID) {
		read(fid, 0)
		land(nil)
		read(fid, 1)
	}

	t.Run("first touch only", func(t *testing.T) {
		l, ow, read, land := setup(16)
		f := create(t, l, ow, "f", 16)
		scanTwo(read, land, f)
		land(nil)
		wantHits(t, l, 0)
		if r := read(f, 2); !r.done || !r.hit {
			t.Fatalf("touch of a completed prefetch: %+v, want a hit", r)
		}
		wantHits(t, l, 1)
		read(f, 3) // completed too; blocks 4 and 5 are now in flight
		wantHits(t, l, 2)
		joined := read(f, 4)
		if joined.done {
			t.Fatal("read of an in-flight prefetch completed before its fill")
		}
		wantHits(t, l, 3)
		again := read(f, 4) // a second touch, still in flight
		wantHits(t, l, 3)
		if r := read(f, 2); !r.hit {
			t.Fatalf("second touch of block 2: %+v, want a hit", r)
		}
		wantHits(t, l, 3)
		land(nil)
		for _, r := range []*result{joined, again} {
			if !r.done || !r.hit || r.err != nil {
				t.Errorf("read that joined the prefetch of block 4: %+v, want a hit", r)
			}
		}
		if got := l.Snapshot().Fill.CoalescedMisses; got != 2 {
			t.Errorf("CoalescedMisses = %d, want 2", got)
		}
		l.CheckInvariants()
	})

	t.Run("evicted before first touch", func(t *testing.T) {
		l, ow, read, land := setup(4)
		b := create(t, l, ow, "b", 8)
		c := create(t, l, ow, "c", 64)
		scanTwo(read, land, b)
		land(nil)
		for _, blk := range []int32{0, 10, 20, 30} { // not a run: no read-ahead
			read(c, blk)
			land(nil)
		}
		for blk := int32(2); blk < 4; blk++ {
			if l.Cache().Peek(cache.BlockID{File: b, Num: blk}) != nil {
				t.Fatalf("block %d of b still cached after the cache turned over", blk)
			}
		}
		if got := l.Cache().Stats().UnrefEvictions; got != 2 {
			t.Errorf("UnrefEvictions = %d, want 2 (the untouched prefetches)", got)
		}
		r := read(b, 2)
		land(nil)
		if !r.done || r.hit {
			t.Fatalf("re-read of an evicted prefetch: %+v, want a miss", r)
		}
		wantHits(t, l, 0)
		l.CheckInvariants()
	})

	t.Run("failed fill", func(t *testing.T) {
		l, ow, read, land := setup(16)
		f := create(t, l, ow, "f", 8)
		scanTwo(read, land, f)
		land(func(fl *core.Fill) bool { return fl.ID.Num >= 2 })
		if l.Cache().Peek(cache.BlockID{File: f, Num: 2}) != nil {
			t.Fatal("a prefetch whose fill failed is still cached")
		}
		r := read(f, 2)
		land(nil)
		if !r.done || r.hit || r.err != nil {
			t.Fatalf("re-read after a failed prefetch: %+v, want a clean miss", r)
		}
		wantHits(t, l, 0)
		l.CheckInvariants()
	})

	t.Run("removed file", func(t *testing.T) {
		l, ow, read, land := setup(16)
		done := create(t, l, ow, "done", 8)
		scanTwo(read, land, done)
		land(nil) // its prefetches complete, then the file goes
		inflight := create(t, l, ow, "inflight", 8)
		scanTwo(read, land, inflight) // its prefetches are in flight when it goes
		for _, name := range []string{"done", "inflight"} {
			if err := l.Remove(ow, name); err != nil {
				t.Fatal(err)
			}
		}
		land(nil)
		for _, fid := range []fs.FileID{done, inflight} {
			if r := read(fid, 2); !errors.Is(r.err, core.ErrNotFound) {
				t.Fatalf("read of a removed file: %+v, want ErrNotFound", r)
			}
		}
		again := create(t, l, ow, "done", 8)
		r := read(again, 2)
		land(nil)
		if !r.done || r.hit {
			t.Fatalf("block 2 of a file created over the removed name: %+v, want a miss", r)
		}
		wantHits(t, l, 0)
		l.CheckInvariants()
	})
}
