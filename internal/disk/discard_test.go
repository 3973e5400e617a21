package disk

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// storeBackends are the five ways a request can reach a backend: the
// in-memory store, the file store on its vectored and its scalar path,
// the directory store with dirFiles announced, and a store without the
// batch methods, which ReadBatch and WriteBatch drive a block at a time.
func storeBackends(t *testing.T, dirFiles ...int32) []struct {
	name string
	s    Store
} {
	vec, scalar := newTestFileStore(t), newTestFileStore(t)
	scalar.SetVectored(false)
	return []struct {
		name string
		s    Store
	}{
		{"mem", NewMemStore()},
		{"file-vectored", vec},
		{"file-scalar", scalar},
		{"dir", newTestDirStore(t, dirFiles...)},
		{"plain", plainStore{NewMemStore()}},
	}
}

// ioCalls is the number of file reads and writes s has made so far (a
// store in memory makes none): the figure a whole file's discard and a
// read of the discarded file must not move.
func ioCalls(s Store) int64 {
	switch s := s.(type) {
	case interface {
		IOCounts() (int64, int64, int64, int64)
	}:
		sr, vr, sw, vw := s.IOCounts()
		return sr + vr + sw + vw
	case plainStore:
		return ioCalls(s.s)
	}
	return 0
}

func mustRead(t *testing.T, s Store, file, blk int32) []byte {
	t.Helper()
	dst := bytes.Repeat([]byte{0xff}, BlockSize)
	if err := s.ReadBlock(file, blk, dst); err != nil {
		t.Fatalf("ReadBlock(%d, %d): %v", file, blk, err)
	}
	return dst
}

func mustBatch(t *testing.T, s Store, specs []BlockSpan, srcs [][]byte) {
	t.Helper()
	for i, err := range WriteBatch(s, specs, srcs) {
		if err != nil {
			t.Fatalf("WriteBatch[%d] %v: %v", i, specs[i], err)
		}
	}
}

// TestDiscard is the storage contract's discard clause on every backend:
// a nil source returns the block to the never-written state.
func TestDiscard(t *testing.T) {
	zeros := make([]byte, BlockSize)
	a := bytes.Repeat([]byte{0xa1}, BlockSize)
	b := bytes.Repeat([]byte{0xb2}, BlockSize)
	for _, be := range storeBackends(t, 1, 2, 3, 4, 9) {
		t.Run(be.name, func(t *testing.T) {
			s := be.s
			// A discard of a block never written is a no-op.
			if err := Discard(s, []BlockSpan{{9, 9}}); err != nil {
				t.Fatalf("discard of a never-written block: %v", err)
			}
			if err := s.WriteBlock(9, 8, nil); err != nil {
				t.Fatalf("scalar discard of a never-written block: %v", err)
			}
			if !bytes.Equal(mustRead(t, s, 9, 9), zeros) {
				t.Error("never-written block does not read as zeros after a discard")
			}

			// Discard, then read: zeros. A whole file's discard, and reads
			// of the file after it, touch no medium.
			specs := []BlockSpan{{1, 0}, {1, 1}, {1, 2}, {2, 0}}
			mustBatch(t, s, specs, [][]byte{a, a, a, a})
			if err := Discard(s, specs[:2]); err != nil {
				t.Fatalf("Discard: %v", err)
			}
			before := ioCalls(s)
			if err := s.WriteBlock(2, 0, nil); err != nil {
				t.Fatalf("scalar discard: %v", err)
			}
			if !bytes.Equal(mustRead(t, s, 2, 0), zeros) {
				t.Errorf("%v does not read as zeros after its discard", specs[3])
			}
			dsts := [][]byte{bytes.Repeat([]byte{0xff}, BlockSize), bytes.Repeat([]byte{0xff}, BlockSize)}
			for i, err := range ReadBatch(s, []BlockSpan{{2, 0}, {2, 1}}, dsts) {
				if err != nil || !bytes.Equal(dsts[i], zeros) {
					t.Errorf("batched read of discarded file 2, block %d: err %v, zeros %v", i, err, bytes.Equal(dsts[i], zeros))
				}
			}
			if after := ioCalls(s); after != before {
				t.Errorf("discarding a whole file and reading it made %d I/O calls, want 0", after-before)
			}
			for _, sp := range specs[:2] {
				if !bytes.Equal(mustRead(t, s, sp.File, sp.Blk), zeros) {
					t.Errorf("%v does not read as zeros after its discard", sp)
				}
			}
			dsts = [][]byte{bytes.Repeat([]byte{0xff}, BlockSize), bytes.Repeat([]byte{0xff}, BlockSize)}
			for i, err := range ReadBatch(s, specs[:2], dsts) {
				if err != nil || !bytes.Equal(dsts[i], zeros) {
					t.Errorf("batched read of discarded %v: err %v, zeros %v", specs[i], err, bytes.Equal(dsts[i], zeros))
				}
			}
			if !bytes.Equal(mustRead(t, s, 1, 2), a) {
				t.Error("a discard took a neighbouring block with it")
			}

			// A write after a discard works.
			if err := s.WriteBlock(1, 0, b); err != nil {
				t.Fatal(err)
			}
			mustBatch(t, s, []BlockSpan{{1, 1}}, [][]byte{b})
			if !bytes.Equal(mustRead(t, s, 1, 0), b) || !bytes.Equal(mustRead(t, s, 1, 1), b) {
				t.Error("a block written after its discard does not read back")
			}

			// One batch, data and discards mixed, blocks named twice: the
			// later span wins, as with sequential WriteBlock calls.
			mustBatch(t, s,
				[]BlockSpan{{3, 0}, {3, 1}, {3, 2}, {3, 0}, {3, 1}, {3, 3}, {3, 2}, {3, 2}},
				[][]byte{a, nil, a, nil, b, a, nil, b})
			for blk, want := range [][]byte{zeros, b, b, a} {
				if !bytes.Equal(mustRead(t, s, 3, int32(blk)), want) {
					t.Errorf("mixed batch: block %d reads %x.., want %x..", blk, mustRead(t, s, 3, int32(blk))[0], want[0])
				}
			}

			// A source that is neither a block nor nil is still an error,
			// and fails its own span only.
			if err := s.WriteBlock(4, 0, []byte{}); err == nil {
				t.Error("WriteBlock of an empty non-nil source succeeded")
			}
			if err := s.WriteBlock(4, 0, a[:BlockSize-1]); err == nil {
				t.Error("WriteBlock of a short source succeeded")
			}
			errs := WriteBatch(s, []BlockSpan{{4, 0}, {4, 1}, {3, 3}}, [][]byte{a, a[:7], nil})
			if errs[0] != nil || errs[1] == nil || errs[2] != nil {
				t.Errorf("batch with one short source: errors %v, want [nil, non-nil, nil]", errs)
			}
			if !bytes.Equal(mustRead(t, s, 4, 1), zeros) || !bytes.Equal(mustRead(t, s, 3, 3), zeros) {
				t.Error("the failed span wrote, or the discard beside it did not land")
			}
		})
	}
}

// TestMemStoreDiscardReleases: what a discard is for. The entry leaves
// the map, so the block count follows the blocks that exist.
func TestMemStoreDiscardReleases(t *testing.T) {
	m := NewMemStore()
	src := make([]byte, BlockSize)
	var specs []BlockSpan
	for f := int32(1); f <= 2; f++ {
		for b := int32(0); b < 8; b++ {
			specs = append(specs, BlockSpan{f, b})
			if err := m.WriteBlock(f, b, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := Discard(m, specs[:8]); err != nil {
		t.Fatal(err)
	}
	if m.Blocks() != 8 || m.BlocksOf(1) != 0 || m.BlocksOf(2) != 8 {
		t.Errorf("after discarding file 1: %d blocks, %d of file 1, %d of file 2; want 8, 0, 8", m.Blocks(), m.BlocksOf(1), m.BlocksOf(2))
	}
}

// TestDirStoreDiscardUnlinks: what a discard is for in a directory. A
// discard alone or inside a run reads as never written and keeps the
// file's length; one that covers a whole file's extent, as a remove
// sends, leaves no file (or an empty one); and one of a name never
// written makes no file.
func TestDirStoreDiscardUnlinks(t *testing.T) {
	const f, never, ghost, whole = 1, 2, 3, 4
	d := newTestDirStore(t, f, never, ghost, whole)
	zeros := make([]byte, BlockSize)
	run := func(file, start int32, n int) []BlockSpan {
		specs := make([]BlockSpan, n)
		for i := range specs {
			specs[i] = BlockSpan{file, start + int32(i)}
		}
		return specs
	}
	srcs := make([][]byte, 6)
	for i := range srcs {
		srcs[i] = bytes.Repeat([]byte{byte(0x10 + i)}, BlockSize)
	}
	mustBatch(t, d, run(f, 0, 6), srcs)
	// Discard 0 alone and 2, 3 in a run that rewrites 1 and 4.
	if err := d.WriteBlock(f, 0, nil); err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xf1}, BlockSize)
	mustBatch(t, d, run(f, 1, 4), [][]byte{fresh, nil, nil, fresh})
	if err := d.WriteBlock(never, 3, nil); err != nil {
		t.Fatalf("discard in a file never written: %v", err)
	}
	if err := Discard(d, run(ghost, 0, 8)); err != nil {
		t.Fatalf("whole-file discard of a name never written: %v", err)
	}
	for i, want := range [][]byte{zeros, fresh, zeros, zeros, fresh, srcs[5]} {
		if got := mustRead(t, d, f, int32(i)); !bytes.Equal(got, want) {
			t.Errorf("block %d reads %x.., want %x..", i, got[0], want[0])
		}
	}
	if fi, err := os.Stat(filepath.Join(d.dir, "f1")); err != nil || fi.Size() != 6*BlockSize {
		t.Errorf("the file with discarded blocks: %v, want its 6 blocks' length", err)
	}

	// The whole extent of an 8-block file with 6 blocks written.
	mustBatch(t, d, run(whole, 0, 6), srcs)
	if err := Discard(d, run(whole, 0, 8)); err != nil {
		t.Fatal(err)
	}
	for blk := int32(0); blk < 8; blk++ {
		if !bytes.Equal(mustRead(t, d, whole, blk), zeros) {
			t.Errorf("block %d of the discarded whole file is not zeros", blk)
		}
	}
	for _, name := range []string{"f2", "f3"} {
		if _, err := os.Stat(filepath.Join(d.dir, name)); !os.IsNotExist(err) {
			t.Errorf("a file for %s, which was only ever discarded (stat: %v)", name, err)
		}
	}
	if fi, err := os.Stat(filepath.Join(d.dir, "f4")); err == nil && fi.Size() != 0 {
		t.Errorf("%d bytes of the discarded whole file are left", fi.Size())
	} else if err != nil && !os.IsNotExist(err) {
		t.Error(err)
	}
}
