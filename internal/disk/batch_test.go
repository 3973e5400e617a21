package disk

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fillPattern stamps a recognizable per-block pattern.
func fillPattern(buf []byte, file, blk int32) {
	for i := range buf {
		buf[i] = byte(int32(i) + file*31 + blk*7)
	}
}

func newTestFileStore(t *testing.T) *FileStore {
	t.Helper()
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestFileStoreBatchRoundTrip drives WriteBlocks/ReadBlocks through
// both the vectored path and the portable ReadAt/WriteAt fallback and
// requires identical bytes from each — the preadv fallback test of the
// issue. The batch mixes two files, out-of-order blocks, and an
// unwritten span that must read back as zeros.
func TestFileStoreBatchRoundTrip(t *testing.T) {
	for _, vectored := range []bool{true, false} {
		t.Run(fmt.Sprintf("vectored=%v", vectored), func(t *testing.T) {
			fs := newTestFileStore(t)
			fs.SetVectored(vectored)

			specs := []BlockSpan{{1, 2}, {1, 0}, {1, 1}, {2, 5}, {1, 3}}
			srcs := make([][]byte, len(specs))
			for i, sp := range specs {
				srcs[i] = make([]byte, BlockSize)
				fillPattern(srcs[i], sp.File, sp.Blk)
			}
			for i, err := range fs.WriteBlocks(specs, srcs) {
				if err != nil {
					t.Fatalf("WriteBlocks[%d]: %v", i, err)
				}
			}

			rspecs := append([]BlockSpan{{3, 9}}, specs...) // {3,9} never written
			dsts := make([][]byte, len(rspecs))
			for i := range dsts {
				dsts[i] = bytes.Repeat([]byte{0xff}, BlockSize)
			}
			for i, err := range fs.ReadBlocks(rspecs, dsts) {
				if err != nil {
					t.Fatalf("ReadBlocks[%d]: %v", i, err)
				}
			}
			if dsts[0][0] != 0 || dsts[0][BlockSize-1] != 0 {
				t.Error("unwritten span did not read as zeros")
			}
			want := make([]byte, BlockSize)
			for i, sp := range rspecs[1:] {
				fillPattern(want, sp.File, sp.Blk)
				if !bytes.Equal(dsts[i+1], want) {
					t.Errorf("span %v read wrong bytes", sp)
				}
			}

			// The scalar path must see the same bytes the batch wrote.
			one := make([]byte, BlockSize)
			if err := fs.ReadBlock(2, 5, one); err != nil {
				t.Fatal(err)
			}
			fillPattern(want, 2, 5)
			if !bytes.Equal(one, want) {
				t.Error("ReadBlock disagrees with WriteBlocks")
			}
		})
	}
}

// TestFileStoreShuffledRunIsOneCall: a batched write of a file's
// sequential blocks, named out of order, is one vectored call, and so is
// the read of the same range.
func TestFileStoreShuffledRunIsOneCall(t *testing.T) {
	if !vectoredIO {
		t.Skip("no vectored I/O on this platform")
	}
	fs := newTestFileStore(t)

	const n = 16
	specs := make([]BlockSpan, n)
	srcs := make([][]byte, n)
	// Present the run out of order: the batch must sort it into one run.
	for i := 0; i < n; i++ {
		specs[i] = BlockSpan{File: 7, Blk: int32((i*5 + 3) % n)}
		srcs[i] = make([]byte, BlockSize)
		fillPattern(srcs[i], 7, specs[i].Blk)
	}
	for i, err := range fs.WriteBlocks(specs, srcs) {
		if err != nil {
			t.Fatalf("WriteBlocks[%d]: %v", i, err)
		}
	}
	if sr, _, sw, vw := fs.IOCounts(); sr != 0 || sw != 0 || vw != 1 {
		t.Errorf("16-block write batch: scalar reads %d, scalar writes %d, pwritev calls %d; want 0 0 1", sr, sw, vw)
	}

	dsts := make([][]byte, n)
	for i := range dsts {
		dsts[i] = make([]byte, BlockSize)
	}
	for i, err := range fs.ReadBlocks(specs, dsts) {
		if err != nil {
			t.Fatalf("ReadBlocks[%d]: %v", i, err)
		}
	}
	if _, vr, _, _ := fs.IOCounts(); vr != 1 {
		t.Errorf("sequential 16-block read batch took %d preadv calls, want 1", vr)
	}
	want := make([]byte, BlockSize)
	for i, sp := range specs {
		fillPattern(want, sp.File, sp.Blk)
		if !bytes.Equal(dsts[i], want) {
			t.Errorf("span %v read wrong bytes", sp)
		}
	}
}

// TestWriteBlocksDuplicateLastWins pins the documented duplicate rule:
// naming the same block twice in one batch behaves like two sequential
// WriteBlock calls — the later span wins.
func TestWriteBlocksDuplicateLastWins(t *testing.T) {
	for _, store := range []struct {
		name string
		s    Store
	}{
		{"file", newTestFileStore(t)},
		{"mem", NewMemStore()},
	} {
		t.Run(store.name, func(t *testing.T) {
			first := bytes.Repeat([]byte{0x11}, BlockSize)
			second := bytes.Repeat([]byte{0x22}, BlockSize)
			specs := []BlockSpan{{1, 0}, {1, 1}, {1, 0}}
			srcs := [][]byte{first, bytes.Repeat([]byte{0x33}, BlockSize), second}
			for i, err := range WriteBatch(store.s, specs, srcs) {
				if err != nil {
					t.Fatalf("WriteBatch[%d]: %v", i, err)
				}
			}
			got := make([]byte, BlockSize)
			if err := store.s.ReadBlock(1, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, second) {
				t.Error("duplicate span: first write won, want last")
			}
		})
	}
}

// plainStore hides a Store's batch face, forcing the helper fallback.
type plainStore struct{ s Store }

func (p plainStore) ReadBlock(file, blk int32, dst []byte) error {
	return p.s.ReadBlock(file, blk, dst)
}
func (p plainStore) WriteBlock(file, blk int32, src []byte) error {
	return p.s.WriteBlock(file, blk, src)
}
func (p plainStore) Close() error { return p.s.Close() }

// TestBatchHelperFallback drives ReadBatch/WriteBatch over a Store that
// does not implement BatchStore and checks per-block semantics hold.
func TestBatchHelperFallback(t *testing.T) {
	s := plainStore{NewMemStore()}
	specs := []BlockSpan{{4, 0}, {4, 1}}
	srcs := [][]byte{
		bytes.Repeat([]byte{0x0a}, BlockSize),
		bytes.Repeat([]byte{0x0b}, BlockSize),
	}
	for i, err := range WriteBatch(s, specs, srcs) {
		if err != nil {
			t.Fatalf("WriteBatch[%d]: %v", i, err)
		}
	}
	dsts := [][]byte{make([]byte, BlockSize), make([]byte, BlockSize)}
	for i, err := range ReadBatch(s, specs, dsts) {
		if err != nil {
			t.Fatalf("ReadBatch[%d]: %v", i, err)
		}
	}
	if !bytes.Equal(dsts[0], srcs[0]) || !bytes.Equal(dsts[1], srcs[1]) {
		t.Error("fallback round trip corrupted bytes")
	}

	// A bad buffer surfaces per-span without failing the others.
	dsts[1] = dsts[1][:16]
	errs := ReadBatch(s, specs, dsts)
	if errs[0] != nil || errs[1] == nil {
		t.Errorf("short-buffer errors = %v, want [nil, non-nil]", errs)
	}
}

// TestMemStoreWriteReuse pins the satellite: steady-state rewrites of
// an existing block must reuse the stored buffer, not allocate a fresh
// 8 KB copy per write.
func TestMemStoreWriteReuse(t *testing.T) {
	m := NewMemStore()
	src := bytes.Repeat([]byte{0x5a}, BlockSize)
	if err := m.WriteBlock(1, 1, src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.WriteBlock(1, 1, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("rewriting an existing block allocates %.1f times per op, want 0", allocs)
	}
}

// TestBatchConcurrentRace hammers batched and scalar reads, writes and
// discards from concurrent goroutines over both backends; it asserts nothing
// beyond error-freedom — its job is to give the race detector traffic
// over the descriptor cache, the IO counters and the block map.
func TestBatchConcurrentRace(t *testing.T) {
	stores := []struct {
		name string
		s    Store
	}{
		{"file", newTestFileStore(t)},
		{"mem", NewMemStore()},
	}
	for _, store := range stores {
		t.Run(store.name, func(t *testing.T) {
			const workers, rounds, span = 8, 20, 12
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					specs := make([]BlockSpan, span)
					bufs := make([][]byte, span)
					for i := range specs {
						specs[i] = BlockSpan{File: int32(w % 3), Blk: int32(i)}
						bufs[i] = make([]byte, BlockSize)
					}
					one := make([]byte, BlockSize)
					// Every other write batch discards a third of its
					// blocks, and every third scalar write is a discard.
					holed := append([][]byte(nil), bufs...)
					for i := 0; i < span; i += 3 {
						holed[i] = nil
					}
					for r := 0; r < rounds; r++ {
						switch w % 4 {
						case 0:
							srcs := bufs
							if r%2 == 1 {
								srcs = holed
							}
							for i, err := range WriteBatch(store.s, specs, srcs) {
								if err != nil {
									t.Errorf("WriteBatch[%d]: %v", i, err)
								}
							}
						case 1:
							for i, err := range ReadBatch(store.s, specs, bufs) {
								if err != nil {
									t.Errorf("ReadBatch[%d]: %v", i, err)
								}
							}
						case 2:
							src := one
							if r%3 == 0 {
								src = nil
							}
							if err := store.s.WriteBlock(int32(w%3), int32(r%span), src); err != nil {
								t.Errorf("WriteBlock: %v", err)
							}
						default:
							if err := store.s.ReadBlock(int32(w%3), int32(r%span), one); err != nil {
								t.Errorf("ReadBlock: %v", err)
							}
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestFileStoreReadPastEOF: a file cut back to two and a half of its
// four blocks reads, on every read path, the bytes that are there and
// zeros for the rest, with no error.
func TestFileStoreReadPastEOF(t *testing.T) {
	const n = 4
	specs := make([]BlockSpan, n)
	srcs := make([][]byte, n)
	for i := range specs {
		specs[i] = BlockSpan{File: 1, Blk: int32(i)}
		srcs[i] = bytes.Repeat([]byte{0xab}, BlockSize)
	}
	want := func(i int) []byte {
		b := make([]byte, BlockSize)
		switch i {
		case 0, 1:
			copy(b, srcs[i])
		case 2:
			copy(b, srcs[i][:BlockSize/2])
		}
		return b
	}
	for _, path := range []string{"scalar", "batch-scalar", "batch-vectored"} {
		t.Run(path, func(t *testing.T) {
			fs := newTestFileStore(t)
			fs.SetVectored(path == "batch-vectored")
			for i, err := range fs.WriteBlocks(specs, srcs) {
				if err != nil {
					t.Fatalf("WriteBlocks[%d]: %v", i, err)
				}
			}
			if err := os.Truncate(fs.path(1), 2*BlockSize+BlockSize/2); err != nil {
				t.Fatal(err)
			}
			dsts := make([][]byte, n)
			for i := range dsts {
				dsts[i] = bytes.Repeat([]byte{0xff}, BlockSize)
			}
			if path == "scalar" {
				for i, sp := range specs {
					if err := fs.ReadBlock(sp.File, sp.Blk, dsts[i]); err != nil {
						t.Errorf("ReadBlock(%d): %v", sp.Blk, err)
					}
				}
			} else {
				for i, err := range fs.ReadBlocks(specs, dsts) {
					if err != nil {
						t.Errorf("ReadBlocks[%d]: %v", i, err)
					}
				}
			}
			for i := range dsts {
				if !bytes.Equal(dsts[i], want(i)) {
					t.Errorf("block %d: wrong bytes (first %x, middle %x, last %x)", i, dsts[i][0], dsts[i][BlockSize/2], dsts[i][BlockSize-1])
				}
			}
		})
	}
}

// TestFileStoreScalarCounters sanity-checks IOCounts on the scalar
// path so the profiling tell in DESIGN.md stays honest.
func TestFileStoreScalarCounters(t *testing.T) {
	fs := newTestFileStore(t)
	buf := make([]byte, BlockSize)
	if err := fs.WriteBlock(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadBlock(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadBlock(2, 0, buf); err != nil { // a file never made: no I/O
		t.Fatal(err)
	}
	sr, vr, sw, vw := fs.IOCounts()
	if sr != 1 || vr != 0 || sw != 1 || vw != 0 {
		t.Errorf("IOCounts = %d %d %d %d, want 1 0 1 0", sr, vr, sw, vw)
	}
}
