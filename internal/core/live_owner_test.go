package core

import (
	"fmt"
	"testing"

	"repro/internal/fs"
)

// TestReleasedOwnersHoldNoReadAheadState runs a long-lived kernel through
// many short sessions — add an owner, scan a file sequentially under
// read-ahead, release — and checks that nothing of a released owner is
// held (owner ids are never reused, so only a nil slot stays behind, in
// the kernel and in the cache) and that every scan prefetches exactly as
// the first one did, however many owners came before it.
func TestReleasedOwnersHoldNoReadAheadState(t *testing.T) {
	const (
		sessions = 1000
		blocks   = 32 // 4x the cache: each scan starts cold
	)
	l := NewLive(LiveConfig{
		CacheBytes:     8 * BlockSize,
		ReadAhead:      true,
		ReadAheadDepth: 4,
	})
	setup := l.AddOwner("setup")
	f, err := l.Create(setup, "f", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	var prevHits int64
	for s := 0; s < sessions; s++ {
		ow := l.AddOwner("scan")
		for blk := int32(0); blk < blocks; blk++ {
			l.Read(ow, f.ID(), blk, 0, 8, func(_ []byte, _ bool, err error) {
				if err != nil {
					t.Fatalf("session %d read %d: %v", s, blk, err)
				}
			})
		}
		l.bc.Owner(ow).Decisions++ // what a stats snapshot's record would hold
		st, err := l.ReleaseOwner(ow)
		if err != nil {
			t.Fatal(err)
		}
		// Blocks 0 and 1 are demand misses (the detector needs two reads);
		// everything after is prefetched and then hit.
		hits := l.fill.PrefetchHits
		if st.Prefetches != blocks-2 || hits-prevHits != blocks-2 || st.Misses != 2 {
			t.Fatalf("session %d: %d prefetches, %d prefetch hits, %d misses; want %d, %d, 2",
				s, st.Prefetches, hits-prevHits, st.Misses, blocks-2, blocks-2)
		}
		prevHits = hits
	}
	for id, o := range l.owners {
		if id != setup && o != nil {
			t.Fatalf("released owner %d is still held (%d read-ahead entries)", id, len(o.runs))
		}
		if id != setup && l.bc.Owner(id).Decisions != 0 { // a dropped record comes back new
			t.Fatalf("released owner %d still has its cache decision record", id)
		}
	}
	l.CheckInvariants()
}

// TestReadAheadDetectorForgetsRemovedFiles: one long-lived session reads
// its way through files that are created and removed in turn — sort's
// temporaries, app_mix's laps. The sequential detector keeps an entry per
// file that exists, within the factor of two its amortised sweep allows,
// not per file the session ever read; and the sweep takes nothing from a
// file that is still there, whose run goes on prefetching across it.
func TestReadAheadDetectorForgetsRemovedFiles(t *testing.T) {
	const (
		files  = 2000
		blocks = 4
	)
	l := NewLive(LiveConfig{
		CacheBytes:     64 * BlockSize,
		ReadAhead:      true,
		ReadAheadDepth: 4,
	})
	ow := l.AddOwner("long-lived")
	read := func(fid fs.FileID, blk int32) {
		l.Read(ow, fid, blk, 0, 8, func(_ []byte, _ bool, err error) {
			if err != nil {
				t.Fatalf("read %d of file %d: %v", blk, fid, err)
			}
		})
	}
	kept, err := l.Create(ow, "kept", 0, files+8)
	if err != nil {
		t.Fatal(err)
	}
	read(kept.ID(), 0)
	o := l.owners[ow]
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("tmp%d", i)
		f, err := l.Create(ow, name, 0, blocks)
		if err != nil {
			t.Fatal(err)
		}
		for blk := int32(0); blk < blocks; blk++ {
			read(f.ID(), blk)
		}
		if err := l.Remove(ow, name); err != nil {
			t.Fatal(err)
		}
		// Two files exist when the detector is at its largest: the bound is
		// the sweep's floor.
		if len(o.runs) > minReadAheadSweep {
			t.Fatalf("after %d files the detector holds %d entries, want at most %d",
				i+1, len(o.runs), minReadAheadSweep)
		}
		// One more block of the file that stays, per temporary: its run
		// must survive every sweep in between.
		read(kept.ID(), int32(i+1))
	}
	st, _ := l.OwnerStats(ow)
	// Each temporary: blocks 0 and 1 miss, the rest are prefetched. The
	// kept file: blocks 0 and 1 miss, then its window stays ahead.
	if want := int64(files*2 + 2); st.Misses != want {
		t.Errorf("%d misses, want %d: a sweep cut the kept file's run, or a temporary's", st.Misses, want)
	}
	l.CheckInvariants()
}

// TestShardConfigFileIDs: a kernel built from ShardConfig(i, n) numbers
// its files i+n, i+2n, …, so each id names its shard (id mod n), and an
// unsharded kernel numbers them 1, 2, 3, …. A create refused for a taken
// name spends no id; one the disk has no room for spends its id.
func TestShardConfigFileIDs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		for i := range max(n, 1) {
			l := NewLive(LiveConfig{CacheBytes: 8 * BlockSize}.ShardConfig(i, n))
			ow := l.AddOwner("t")
			var got []fs.FileID
			for k := range 3 {
				f, err := l.Create(ow, fmt.Sprint("f", k), 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, f.ID())
				if _, err := l.Create(ow, "f0", 0, 1); err == nil {
					t.Fatal("create over a taken name succeeded")
				}
			}
			if _, err := l.Create(ow, "huge", 0, 1<<30); err == nil {
				t.Fatal("a create past the disk succeeded")
			}
			f, err := l.Create(ow, "last", 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, f.ID())
			step := max(n, 1)
			first := i + step
			want := fmt.Sprint([]int{first, first + step, first + 2*step, first + 4*step})
			if fmt.Sprint(got) != want {
				t.Errorf("ShardConfig(%d, %d): ids %v, want %s", i, n, got, want)
			}
		}
	}
}
