package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
)

// nopReply is a ReadReply that keeps nothing, as the server's pooled
// reply keeps nothing past its send.
type nopReply struct{}

func (nopReply) ReadDone([]byte, bool, error) {}

// liveReader is one owner of a bare Live — no executor, so every fill
// runs inline from the default MemStore — over a file of fileBlocks
// blocks under a cache of cacheBlocks.
func liveReader(tb testing.TB, cfg core.LiveConfig, cacheBlocks, fileBlocks int) (l *core.Live, owner int, fid fs.FileID) {
	tb.Helper()
	cfg.CacheBytes = int64(cacheBlocks) * core.BlockSize
	l = core.NewLive(cfg)
	owner = l.AddOwner("bench")
	f, err := l.Create(owner, "data", 0, fileBlocks)
	if err != nil {
		tb.Fatal(err)
	}
	return l, owner, f.ID()
}

// TestLiveReadHitAllocs is the allocation gate of the kernel's read hit:
// a ReadTo that finds its block cached allocates nothing.
func TestLiveReadHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	l, owner, fid := liveReader(t, core.LiveConfig{}, 64, 1)
	l.ReadTo(owner, fid, 0, 0, core.BlockSize, nopReply{})
	if n := testing.AllocsPerRun(1000, func() {
		l.ReadTo(owner, fid, 0, 0, core.BlockSize, nopReply{})
	}); n != 0 {
		t.Errorf("a read hit allocated %.1f times, want 0", n)
	}
	if st, _ := l.OwnerStats(owner); st.Misses != 1 {
		t.Errorf("%d misses, want the first read's 1", st.Misses)
	}
}

// The scans below: a cyclic read of a file four times the cache, so
// with read-ahead off every read misses and evicts.
const scanCacheBlocks, scanFileBlocks = 64, 256

// scanReader returns the scan's i-th read, on a bare Live warmed by one
// lap of the scan (a full cache).
func scanReader(tb testing.TB, cfg core.LiveConfig) func(i int) {
	l, owner, fid := liveReader(tb, cfg, scanCacheBlocks, scanFileBlocks)
	read := func(i int) { l.ReadTo(owner, fid, int32(i%scanFileBlocks), 0, core.BlockSize, nopReply{}) }
	for i := 0; i < scanFileBlocks; i++ {
		read(i)
	}
	return read
}

// readAhead4 is the scan's read-ahead arm: most reads hit a prefetched
// block, and every other one issues the next two-block run.
var readAhead4 = core.LiveConfig{ReadAhead: true, ReadAheadDepth: 4}

// TestLiveReadMissAllocs is the allocation gate of the miss path: a lap
// of the scan, every read a demand miss filled inline — or, under
// read-ahead, a prefetch hit or a run of two fills — allocates nothing
// once the fill records and their waiter lists exist. It counts whole
// laps, so AllocsPerRun's truncation to a whole number per run cannot
// hide one allocation in a few hundred reads.
func TestLiveReadMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for name, cfg := range map[string]core.LiveConfig{"miss": {}, "readahead4": readAhead4} {
		read := scanReader(t, cfg)
		if n := testing.AllocsPerRun(10, func() {
			for i := 0; i < scanFileBlocks; i++ {
				read(i)
			}
		}); n != 0 {
			t.Errorf("%s: a lap of %d reads allocated %.0f times, want 0", name, scanFileBlocks, n)
		}
	}
}

// BenchmarkLiveReadTo times one Live.ReadTo with no socket in front of
// it: a hit; a demand miss filled inline (the scan, read-ahead off); and
// the same scan under read-ahead at depth 4.
func BenchmarkLiveReadTo(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		l, owner, fid := liveReader(b, core.LiveConfig{}, scanCacheBlocks, 1)
		l.ReadTo(owner, fid, 0, 0, core.BlockSize, nopReply{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.ReadTo(owner, fid, 0, 0, core.BlockSize, nopReply{})
		}
	})
	scan := func(b *testing.B, cfg core.LiveConfig) {
		read := scanReader(b, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(i)
		}
	}
	b.Run("miss", func(b *testing.B) { scan(b, core.LiveConfig{}) })
	b.Run("readahead4", func(b *testing.B) { scan(b, readAhead4) })
}
