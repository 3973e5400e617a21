package disk

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
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
	vec, err := NewFileStore(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	defer vec.Close()
	scalar, err := NewFileStore(filepath.Join(b.TempDir(), "store"))
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
// only the []error it returns — the span order, the run's buffers, the
// iovecs and the call into the descriptor are pooled scratch — and
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
	write() // the first batch makes the file
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

// TestFileStoreInterleavedWritesReadAsRuns: two files written a block at
// a time, in turn, as two writers with synchronous write-backs leave
// them, still lie in block order: a 16-block read of either is one
// vectored call.
func TestFileStoreInterleavedWritesReadAsRuns(t *testing.T) {
	if !vectoredIO {
		t.Skip("no vectored I/O on this platform")
	}
	const n = 16
	s := newTestFileStore(t)
	buf := make([]byte, BlockSize)
	for b := int32(0); b < n; b++ {
		for f := int32(1); f <= 2; f++ {
			fillPattern(buf, f, b)
			if err := s.WriteBlock(f, b, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	specs, dsts := make([]BlockSpan, n), make([][]byte, n)
	for i := range dsts {
		dsts[i] = make([]byte, BlockSize)
	}
	for f := int32(1); f <= 2; f++ {
		for i := range specs {
			specs[i] = BlockSpan{f, int32(i)}
		}
		sr0, vr0, _, _ := s.IOCounts()
		for i, err := range s.ReadBlocks(specs, dsts) {
			if err != nil {
				t.Fatalf("file %d, ReadBlocks[%d]: %v", f, i, err)
			}
		}
		if sr, vr, _, _ := s.IOCounts(); sr != sr0 || vr != vr0+1 {
			t.Errorf("file %d: a %d-block read made %d scalar and %d vectored reads, want 0 and 1", f, n, sr-sr0, vr-vr0)
		}
		for i, sp := range specs {
			fillPattern(buf, sp.File, sp.Blk)
			if !bytes.Equal(dsts[i], buf) {
				t.Errorf("%v read wrong bytes", sp)
			}
		}
	}
}

// storeBytes is the size of the regular files at path: the file, or
// those under the directory.
func storeBytes(t *testing.T, path string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		n += fi.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFileStoreDiscardGivesBytesBack: discarding a whole stored file,
// as a remove does, gives its bytes back on disk.
func TestFileStoreDiscardGivesBytesBack(t *testing.T) {
	const n = 16
	path := filepath.Join(t.TempDir(), "store")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var specs []BlockSpan
	var srcs [][]byte
	for f := int32(1); f <= 2; f++ {
		for b := int32(0); b < n; b++ {
			specs = append(specs, BlockSpan{f, b})
			srcs = append(srcs, bytes.Repeat([]byte{byte(f)}, BlockSize))
		}
	}
	mustBatch(t, s, specs, srcs)
	if got := storeBytes(t, path); got != 2*n*BlockSize {
		t.Fatalf("the store holds %d bytes for %d blocks", got, 2*n)
	}
	if err := Discard(s, specs[:n]); err != nil {
		t.Fatal(err)
	}
	if got := storeBytes(t, path); got != n*BlockSize {
		t.Errorf("the store holds %d bytes after discarding %d of its %d blocks, want %d", got, n, 2*n, n*BlockSize)
	}
	zeros := make([]byte, BlockSize)
	for b := int32(0); b < n; b++ {
		if !bytes.Equal(mustRead(t, s, 1, b), zeros) || !bytes.Equal(mustRead(t, s, 2, b), srcs[n]) {
			t.Fatalf("block %d of the discarded file is not zeros, or of the kept one not its bytes", b)
		}
	}
}

// TestFileStoreRemembersNoFile: a read run of a file no write has made
// finds no file, and the store remembers that, so a second read run of
// it makes no open attempt: a file put in its place behind the store's
// back stays unread. Such an entry holds no descriptor, so more of them
// than the bound neither block a write nor are closed by one, and the
// first write opens the file in their place.
func TestFileStoreRemembersNoFile(t *testing.T) {
	const f = 7
	s := newTestFileStore(t)
	zeros := make([]byte, BlockSize)
	if !bytes.Equal(mustRead(t, s, f, 0), zeros) {
		t.Fatal("a block of a file never written is not zeros")
	}
	planted := bytes.Repeat([]byte{0xee}, 2*BlockSize)
	if err := os.WriteFile(s.path(f), planted, 0o644); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, s, f, 1), zeros) {
		t.Fatal("the second read run of a file never written opened it again")
	}
	for g := int32(100); g <= 100+maxOpenFiles; g++ {
		mustRead(t, s, g, 0)
	}
	for g := int32(200); g <= 200+maxOpenFiles; g++ {
		mustBatch(t, s, []BlockSpan{{g, 0}}, [][]byte{planted[:BlockSize]})
	}
	block := bytes.Repeat([]byte{0x5a}, BlockSize)
	mustBatch(t, s, []BlockSpan{{f, 0}}, [][]byte{block})
	if !bytes.Equal(mustRead(t, s, f, 0), block) || !bytes.Equal(mustRead(t, s, f, 1), planted[BlockSize:]) {
		t.Fatal("the first write did not open the file in place of the entry")
	}
}

// TestFileStoreScratchDir: the store makes its directory, or takes an
// empty one, and Close removes it; a path that exists and is anything
// else is refused and left as it was.
func TestFileStoreScratchDir(t *testing.T) {
	dir := t.TempDir()
	held, full, empty := filepath.Join(dir, "held"), filepath.Join(dir, "full"), filepath.Join(dir, "empty")
	want := []byte("bytes a refused store must not touch")
	if err := os.WriteFile(held, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(full, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(full, "1"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{held, full} {
		if s, err := NewFileStore(path); err == nil {
			s.Close()
			t.Errorf("NewFileStore(%s) took a path that is not an empty directory", filepath.Base(path))
		}
	}
	for _, path := range []string{held, filepath.Join(full, "1")} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s after the refusal: %q, %v", path, got, err)
		}
	}
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{empty, filepath.Join(dir, "new")} {
		s, err := NewFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		mustBatch(t, s, []BlockSpan{{1, 3}}, [][]byte{make([]byte, BlockSize)})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s is still there after Close (stat: %v)", filepath.Base(path), err)
		}
	}
}

// TestFileStoreDescriptorBound: four goroutines write, read back and
// discard files three times the descriptor cache's bound, so the cache
// closes descriptors all the while. Every byte reads back right, the
// process never holds more descriptors than it started with plus the
// bound, and Close leaves none of the store's open.
func TestFileStoreDescriptorBound(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	const workers, files, run, rounds = 4, 3 * maxOpenFiles, 4, 3
	s := newTestFileStore(t)
	mustBatch(t, s, []BlockSpan{{0, 0}}, [][]byte{make([]byte, BlockSize)}) // the runtime's poller, once
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Error(err)
		}
		return len(ents)
	}
	start := openFDs()
	limit := start + maxOpenFiles
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, openFDs())
			select {
			case <-done:
				peak <- most
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			specs, bufs := make([]BlockSpan, run), make([][]byte, run)
			want := make([]byte, BlockSize)
			for i := range bufs {
				bufs[i] = make([]byte, BlockSize)
			}
			for r := 0; r < rounds; r++ {
				for f := int32(1 + w); f <= files; f += workers {
					for i := range specs {
						specs[i] = BlockSpan{f, int32(r*run + i)}
						fillPattern(bufs[i], f, specs[i].Blk)
					}
					for i, err := range s.WriteBlocks(specs, bufs) {
						if err != nil {
							t.Errorf("write %v: %v", specs[i], err)
						}
					}
				}
				for f := int32(1 + w); f <= files; f += workers {
					for b := int32(0); b < int32((r+1)*run); b += run {
						for i := range specs {
							specs[i] = BlockSpan{f, b + int32(i)}
						}
						for i, err := range s.ReadBlocks(specs, bufs) {
							if fillPattern(want, f, specs[i].Blk); err != nil || !bytes.Equal(bufs[i], want) {
								t.Errorf("read %v: err %v, right bytes %v", specs[i], err, bytes.Equal(bufs[i], want))
							}
						}
					}
				}
			}
			for f := int32(1 + w); f <= files; f += workers {
				whole := make([]BlockSpan, rounds*run)
				for i := range whole {
					whole[i] = BlockSpan{f, int32(i)}
				}
				if err := Discard(s, whole); err != nil {
					t.Error(err)
				}
				if err := s.ReadBlock(f, 0, want); err != nil || !bytes.Equal(want, zeroBlock[:]) {
					t.Errorf("file %d after its discard: err %v, zeros %v", f, err, bytes.Equal(want, zeroBlock[:]))
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if most := <-peak; most > limit {
		t.Errorf("%d descriptors open at the peak, want at most %d (the start plus %d)", most, limit, maxOpenFiles)
	}
	if ents, err := os.ReadDir(s.dir); err != nil || len(ents) != 1 {
		t.Errorf("%d files left after every worker's discards, want the first write's one (%v)", len(ents), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(); n >= start {
		t.Errorf("%d descriptors open after Close, want fewer than the %d at the start, which counted one of the store's", n, start)
	}
}
