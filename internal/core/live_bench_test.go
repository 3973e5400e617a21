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

// BenchmarkLiveReadTo times one Live.ReadTo with no socket in front of
// it: a hit; a demand miss filled inline, a cyclic scan of a file four
// times the cache with read-ahead off, so every read misses and evicts;
// and the same scan under read-ahead at depth 4, where most reads hit a
// prefetched block and every other one issues the next two-block run.
func BenchmarkLiveReadTo(b *testing.B) {
	const cacheBlocks, fileBlocks = 64, 256
	b.Run("hit", func(b *testing.B) {
		l, owner, fid := liveReader(b, core.LiveConfig{}, cacheBlocks, 1)
		l.ReadTo(owner, fid, 0, 0, core.BlockSize, nopReply{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.ReadTo(owner, fid, 0, 0, core.BlockSize, nopReply{})
		}
	})
	scan := func(b *testing.B, cfg core.LiveConfig) {
		l, owner, fid := liveReader(b, cfg, cacheBlocks, fileBlocks)
		for blk := int32(0); blk < fileBlocks; blk++ { // warm: a full cache
			l.ReadTo(owner, fid, blk, 0, core.BlockSize, nopReply{})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.ReadTo(owner, fid, int32(i%fileBlocks), 0, core.BlockSize, nopReply{})
		}
	}
	b.Run("miss", func(b *testing.B) { scan(b, core.LiveConfig{}) })
	b.Run("readahead4", func(b *testing.B) {
		scan(b, core.LiveConfig{ReadAhead: true, ReadAheadDepth: 4})
	})
}
