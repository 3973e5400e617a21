package disk

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	src := bytes.Repeat([]byte{0xab}, BlockSize)
	if err := m.WriteBlock(3, 7, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := m.ReadBlock(3, 7, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Error("read bytes differ from written")
	}
	// Unwritten blocks read as zeros, even into a dirty buffer.
	if err := m.ReadBlock(3, 8, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 || dst[BlockSize-1] != 0 {
		t.Error("unwritten block did not read as zeros")
	}
	if m.Blocks() != 1 {
		t.Errorf("Blocks() = %d, want 1", m.Blocks())
	}
}

// BenchmarkStoreFill: the store stage of a fill on each backend. One
// ReadBatch call per op, a same-file run of 1, 4 or 16 blocks of a
// 256-block file written in one batch just before, reported as µs per
// block. A backend on files reads from the page cache: this is a hot
// store, not a cold disk.
func BenchmarkStoreFill(b *testing.B) {
	const fileBlocks = 256
	vec, err := NewFileStore(filepath.Join(b.TempDir(), "store.dat"))
	if err != nil {
		b.Fatal(err)
	}
	defer vec.Close()
	scalar, err := NewFileStore(filepath.Join(b.TempDir(), "store.dat"))
	if err != nil {
		b.Fatal(err)
	}
	defer scalar.Close()
	scalar.SetVectored(false)
	dir, err := NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	dir.Announce(1, "bench/file")
	specs := make([]BlockSpan, fileBlocks)
	srcs := make([][]byte, fileBlocks)
	for i := range srcs {
		specs[i] = BlockSpan{File: 1, Blk: int32(i)}
		srcs[i] = make([]byte, BlockSize)
		fillPattern(srcs[i], 1, int32(i))
	}
	for _, be := range []struct {
		name string
		s    Store
	}{{"mem", NewMemStore()}, {"file-vectored", vec}, {"file-scalar", scalar}, {"dir", dir}} {
		for i, err := range WriteBatch(be.s, specs, srcs) {
			if err != nil {
				b.Fatalf("%s: write %d: %v", be.name, i, err)
			}
		}
		for _, run := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/run%d", be.name, run), func(b *testing.B) {
				dsts := make([][]byte, run)
				for i := range dsts {
					dsts[i] = make([]byte, BlockSize)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := i * run % (fileBlocks - run + 1)
					for _, err := range ReadBatch(be.s, specs[start:start+run], dsts) {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*run), "us/block")
			})
		}
	}
}

// TestFileStoreReadBlocksAllocs: a vectored 16-block read allocates
// only the []error it returns — the resolved entries, the run's buffers,
// the iovecs and the call into the descriptor are pooled scratch — and
// reads the bytes written.
func TestFileStoreReadBlocksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and drops pooled scratch")
	}
	const run = 16
	s := newTestFileStore(t)
	specs := make([]BlockSpan, run)
	bufs := make([][]byte, run)
	for i := range specs {
		specs[i] = BlockSpan{File: 1, Blk: int32(i)}
		bufs[i] = make([]byte, BlockSize)
		fillPattern(bufs[i], 1, int32(i))
	}
	for i, err := range s.WriteBlocks(specs, bufs) {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for _, b := range bufs {
		clear(b)
	}
	_, v0, _, _ := s.IOCounts()
	read := func() {
		for i, err := range s.ReadBlocks(specs, bufs) {
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, read); n > 1 {
		t.Errorf("a %d-block ReadBlocks allocated %.0f times, want at most 1 (its []error)", run, n)
	}
	if _, v, _, _ := s.IOCounts(); v == v0 {
		t.Error("no vectored read issued: the gate measured the scalar path")
	}
	want := make([]byte, BlockSize)
	for i, b := range bufs {
		fillPattern(want, 1, int32(i))
		if !bytes.Equal(b, want) {
			t.Fatalf("block %d read back wrong bytes", i)
		}
	}
}

// TestFileStoreWriteBlocksAllocs: the write twin of the read gate. A
// 64-block batch allocates only the []error it returns — its span order
// and resolved entries are pooled scratch, and the stable sort of the
// spans takes no closure or swapper off the heap.
func TestFileStoreWriteBlocksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and drops pooled scratch")
	}
	const run = 64
	s := newTestFileStore(t)
	specs := make([]BlockSpan, run)
	srcs := make([][]byte, run)
	for i := range specs {
		// Named in reverse, so the sort has work to do.
		specs[i] = BlockSpan{File: 1, Blk: int32(run - 1 - i)}
		srcs[i] = make([]byte, BlockSize)
		fillPattern(srcs[i], 1, specs[i].Blk)
	}
	write := func() {
		for i, err := range s.WriteBlocks(specs, srcs) {
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
	write() // the first batch maps the slots
	_, _, _, v0 := s.IOCounts()
	if n := testing.AllocsPerRun(100, write); n > 1 {
		t.Errorf("a %d-block WriteBlocks allocated %.0f times, want at most 1 (its []error)", run, n)
	}
	if _, _, _, v := s.IOCounts(); v == v0 {
		t.Error("no vectored write issued: the gate measured the scalar path")
	}
	got, want := make([]byte, BlockSize), make([]byte, BlockSize)
	for _, sp := range specs {
		if err := s.ReadBlock(sp.File, sp.Blk, got); err != nil {
			t.Fatal(err)
		}
		fillPattern(want, 1, sp.Blk)
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d read back wrong bytes", sp.Blk)
		}
	}
}
