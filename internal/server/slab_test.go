package server

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
)

// TestWriteBurstLeavesTheSlab: a shard's pool, the first slots its cache
// makes, is what it settles on.
// A burst of whole-block writes over four times the cache, through
// write-behind at depth 64, detaches dirty victims' slots by the batch,
// and the blocks that replace them take slots from the heap; so does a
// read back over the cache, which evicts the last dirty blocks. Once the
// write-backs have landed (a release of another file answers behind
// them) and a second read over the cache has replaced every block read
// during the burst's write-backs, the shard holds at most one slot
// beyond its pool — with the heap slots recycled for good, it held every
// one the burst took.
func TestWriteBurstLeavesTheSlab(t *testing.T) {
	const cacheBlocks = 128
	srv := New(Config{WritebackDepth: 64, Kernel: core.LiveConfig{CacheBytes: cacheBlocks * core.BlockSize}})
	sh := srv.shards[0]
	var owner int
	var fid fs.FileID
	sh.ask(func(sh *shard) {
		owner = sh.kern.AddOwner("burst")
		f, err := sh.kern.Create(owner, "f", 0, 0)
		if err == nil {
			_, err = sh.kern.Create(owner, "g", 0, 0)
		}
		if err != nil {
			t.Error(err)
			return
		}
		fid = f.ID()
	})
	block := bytes.Repeat([]byte{0x5a}, core.BlockSize)
	burst := 0 // the most slots past its pool the shard held during the burst
	for blk := int32(0); blk < 4*cacheBlocks; blk++ {
		sh.ask(func(sh *shard) {
			sh.kern.Write(owner, fid, blk, 0, block, func(_ bool, err error) {
				if err != nil {
					t.Errorf("write %d: %v", blk, err)
				}
			})
			burst = max(burst, sh.kern.Cache().Slots()-cacheBlocks)
		})
	}
	if burst < 64 {
		t.Fatalf("the burst held at most %d heap slots; the test shows nothing unless a batch's worth of victims detach", burst)
	}
	readBack := func(from int32) {
		for blk := from; blk < from+cacheBlocks; blk++ {
			got := make(chan []byte, 1)
			sh.ask(func(sh *shard) {
				sh.kern.Read(owner, fid, blk, 0, core.BlockSize, func(data []byte, _ bool, err error) {
					if err != nil {
						t.Errorf("read %d: %v", blk, err)
					}
					got <- bytes.Clone(data)
				})
			})
			if data := <-got; !bytes.Equal(data, block) {
				t.Fatalf("block %d read back wrong bytes", blk)
			}
		}
	}
	readBack(0)
	landed := make(chan error, 1)
	sh.ask(func(sh *shard) { sh.kern.ReleaseFile(owner, "g", func(err error) { landed <- err }) })
	if err := <-landed; err != nil {
		t.Fatal(err)
	}
	readBack(cacheBlocks)
	var n int
	sh.ask(func(sh *shard) { n = sh.kern.Cache().Slots() - cacheBlocks })
	if n > 1 {
		t.Errorf("the shard holds %d slots beyond its %d-slot pool (%d during the burst), want at most 1", n, cacheBlocks, burst)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewMakesNoPool: a server's caches make their slots as blocks
// arrive, so building one over a 256 MB cache allocates a few megabytes
// — the buffer arenas and indexes — not the cache's size.
func TestNewMakesNoPool(t *testing.T) {
	const cacheBytes, limit = 256 << 20, 8 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv := New(Config{Shards: 2, Kernel: core.LiveConfig{CacheBytes: cacheBytes}})
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New over a %d MB cache allocated %.1f MB", cacheBytes>>20, float64(got)/(1<<20))
	if got > limit {
		t.Errorf("New over a %d MB cache allocated %d bytes, want under %d", cacheBytes>>20, got, limit)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
