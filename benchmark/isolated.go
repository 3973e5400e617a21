package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/server"
	"repro/internal/sim"
)

// The isolated replays drive one layer's exported API on one goroutine,
// a fixed amount of work each, and report time per operation: what the
// layer costs with nothing around it. They run after the server has
// stopped, so nothing competes with them.

// nsPerOp times n calls of f.
func nsPerOp(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// isolatedServerMetrics fills the isolated-replay metrics of a server
// workload.
func isolatedServerMetrics(m map[string]float64, wl workload, cfg runConfig) error {
	m["server.codec_ns_per_frame"] = codecNsPerFrame()
	live, err := liveNsPerOp(wl, cfg.seed)
	if err != nil {
		return err
	}
	m["core.live_ns_per_op"] = live
	cacheMetrics(m)
	rd, wr, err := fileStoreUsPerBlock(cfg.outDir)
	if err != nil {
		return err
	}
	m["disk.filestore_read_us_per_block"], m["disk.filestore_write_us_per_block"] = rd, wr
	return nil
}

// codecNsPerFrame is the cost of one frame through the codec, written
// once and read once, averaged over the two frames of a whole-block
// read: the 13-byte request and the response that carries the block.
func codecNsPerFrame() float64 {
	const frames = 2
	req, resp := make([]byte, 13), make([]byte, 1+blockBytes)
	var buf bytes.Buffer
	br := bufio.NewReaderSize(&buf, 64<<10)
	body := make([]byte, server.MaxFrame)
	return nsPerOp(200_000, func(i int) {
		buf.Reset()
		br.Reset(&buf)
		// Writes to a bytes.Buffer cannot fail, and what is read back is
		// what was just written.
		_ = server.WriteFrame(&buf, uint32(i), server.OpRead, req)
		_ = server.WriteFrame(&buf, uint32(i), server.StatusOK, resp)
		for f := 0; f < frames; f++ {
			_, _, n, err := server.ReadFrameHeader(br)
			if err == nil {
				_, err = io.ReadFull(br, body[:n])
			}
			if err != nil {
				panic("benchmark: codec round trip: " + err.Error())
			}
		}
	}) / frames
}

// liveOps bounds the isolated core.Live replay of a time-driven
// workload; app_mix replays one whole lap instead.
const liveOps = 200_000

// liveNsPerOp replays the workload's own op stream, set-up and all,
// into a bare core.Live and times the driving.
func liveNsPerOp(wl workload, seed uint64) (float64, error) {
	s := newLiveSink()
	if err := wl.setup([]sink{s}); err != nil {
		return 0, err
	}
	w := &window{idx: 1, seed: seed, conns: 1, maxOps: liveOps, gate: newLapGate(1)}
	if wl.traits().laps {
		w.maxOps, w.whole = 0, true // one whole lap
	}
	before, start := s.ops, time.Now()
	if err := wl.drive(s, 0, w); err != nil {
		return 0, err
	}
	took := time.Since(start)
	if s.failed > 0 {
		return 0, fmt.Errorf("%s: isolated replay: %d operations failed; first: %w", wl.traits().name, s.failed, s.firstEr)
	}
	return float64(took) / float64(s.ops-before), nil
}

// acceptCandidate is the cheapest manager there is: it manages every
// block and always agrees with the kernel's candidate.
type acceptCandidate struct{}

func (acceptCandidate) NewBlock(*cache.Buf)                       {}
func (acceptCandidate) BlockGone(*cache.Buf)                      {}
func (acceptCandidate) BlockAccessed(*cache.Buf, int, int)        {}
func (acceptCandidate) PlaceholderUsed(cache.BlockID, *cache.Buf) {}
func (acceptCandidate) Managed(int) bool                          { return true }
func (acceptCandidate) ReplaceBlock(c *cache.Buf, _ cache.BlockID) *cache.Buf {
	return c
}

// cacheMetrics runs the three cases of internal/cache/bench_test.go from
// outside the package: the hit path, a miss with its eviction under
// LRU-SP with a manager consulted, and the whole evict/placeholder cycle
// against a real ACM manager that has misjudged its workload.
func cacheMetrics(m map[string]float64) {
	hit := cache.New(cache.Config{Capacity: 1024, Alloc: cache.GlobalLRU}, nil)
	for i := 0; i < 1024; i++ {
		hit.Insert(cache.BlockID{File: 1, Num: int32(i)}, cache.NoOwner, 0)
	}
	m["cache.lookup_hit_ns"] = nsPerOp(2_000_000, func(i int) {
		hit.Lookup(cache.BlockID{File: 1, Num: int32(i % 1024)}, 0, blockBytes)
	})

	evict := cache.New(cache.Config{Capacity: cacheBlocks, Alloc: cache.LRUSP}, acceptCandidate{})
	m["cache.miss_evict_ns"] = nsPerOp(1_000_000, func(i int) {
		evict.Insert(cache.BlockID{File: 1, Num: int32(i)}, 1, 0)
	})

	a := acm.New(func() sim.Time { return 0 }, acm.Limits{})
	c := cache.New(cache.Config{Capacity: cacheBlocks, Alloc: cache.LRUSP}, a)
	mgr, err := a.CreateManager(1)
	if err == nil {
		// A hot file foolishly marked junk under a cold streaming file:
		// the manager keeps overruling the kernel with blocks needed again
		// at once.
		err = mgr.SetPriority(fs.FileID(1), -1)
	}
	if err != nil {
		panic("benchmark: acm set-up: " + err.Error())
	}
	access := func(i int) {
		for _, id := range [2]cache.BlockID{{File: 1, Num: int32(i % 100)}, {File: 2, Num: int32(i % 4096)}} {
			if c.Lookup(id, 0, blockBytes) == nil {
				c.Insert(id, 1, 0)
			}
		}
	}
	for i := 0; i < 4*4096; i++ {
		access(i) // settle free lists and table sizes
	}
	m["acm.replace_block_ns"] = nsPerOp(500_000, access)
}

// fileStoreUsPerBlock times a FileStore's vectored path in runs of eight
// blocks: 4096 blocks written, then read back.
func fileStoreUsPerBlock(outDir string) (read, write float64, err error) {
	dir, err := os.MkdirTemp(outDir, "iso-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := disk.NewFileStore(filepath.Join(dir, "blocks"))
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	const run, runs = 8, 512
	specs, bufs := make([]disk.BlockSpan, run), make([][]byte, run)
	for i := range bufs {
		bufs[i] = make([]byte, blockBytes)
		fillBlock(bufs[i], 0, int32(i), 1)
	}
	pass := func(io func([]disk.BlockSpan, [][]byte) []error) float64 {
		return nsPerOp(runs, func(r int) {
			for i := range specs {
				specs[i] = disk.BlockSpan{File: 1, Blk: int32(r*run + i)}
			}
			for _, e := range io(specs, bufs) {
				if e != nil && err == nil {
					err = e
				}
			}
		}) / run / 1e3
	}
	write = pass(st.WriteBlocks)
	read = pass(st.ReadBlocks)
	return read, write, err
}

// simProbes times the DES engine's two ways of advancing virtual time:
// the inline lookahead fast path, and the parked path through the event
// heap and a goroutine handoff that the fast path avoids.
func simProbes(m map[string]float64) {
	sleeper := func(n int, opts ...sim.Option) float64 {
		e := sim.New(opts...)
		e.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		start := time.Now()
		e.Run()
		return float64(time.Since(start)) / float64(n)
	}
	m["sim.fast_sleep_ns"] = sleeper(2_000_000)
	m["sim.handoff_ns"] = sleeper(200_000, sim.DisableFastPath)
}
