package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
)

// missConfig is a machine on which every read of strideBlock's sequence is
// a demand miss and nothing else happens: a 50-block cache under a 400-block
// file, no read-ahead, and no dirty block for the update daemon to find.
func missConfig() core.Config {
	cfg := smallConfig()
	cfg.ReadAhead = false
	return cfg
}

const missFileBlocks = 400

// strideBlock is the i-th block of a walk that visits every block of the
// file before repeating one, never two neighbours in a row.
func strideBlock(i int) int32 { return int32(i * 37 % missFileBlocks) }

// readStride makes p's reads from..to of the walk.
func readStride(p *core.Proc, f *fs.File, from, to int) {
	for i := from; i < to; i++ {
		p.Read(f, strideBlock(i))
	}
}

// TestMissFillWakeZeroAllocs is the allocation gate for the simulator's I/O
// path: once the cache is full and the fill records, the disk queue and the
// event heap have grown to their working sizes, a miss — eviction, startFill,
// the drive's three callbacks, the completion's Broadcast, the waiter's
// wake-up — allocates nothing. Alone, and with a second process that finds
// every one of the first's fills in flight and joins it.
func TestMissFillWakeZeroAllocs(t *testing.T) {
	const warm, runs = 100, 200
	const total = warm + 1 + runs // AllocsPerRun makes one call of its own first

	t.Run("one process", func(t *testing.T) {
		sys := core.NewSystem(missConfig())
		f := sys.CreateFile("data", 0, missFileBlocks)
		var allocs float64
		p := sys.Spawn("app", func(p *core.Proc) {
			readStride(p, f, 0, warm)
			i := warm
			allocs = testing.AllocsPerRun(runs, func() {
				p.Read(f, strideBlock(i))
				i++
			})
		})
		sys.Run()
		if allocs != 0 {
			t.Errorf("a miss allocated %.1f times, want 0", allocs)
		}
		if st := p.Stats(); st.Misses != total || st.DemandReads != total {
			t.Errorf("%d misses, %d demand reads; want %d of each", st.Misses, st.DemandReads, total)
		}
		if h := sys.SimStats().Handoffs; h != 1 {
			t.Errorf("Handoffs = %d, want 1: the process should have dispatched every disk step itself", h)
		}
	})

	t.Run("second process joins the fill", func(t *testing.T) {
		sys := core.NewSystem(missConfig())
		f := sys.CreateFile("data", 0, missFileBlocks)
		var allocs float64
		first := sys.Spawn("first", func(p *core.Proc) {
			readStride(p, f, 0, warm)
			i := warm
			allocs = testing.AllocsPerRun(runs, func() {
				p.Read(f, strideBlock(i))
				i++
			})
		})
		// Woken second by every completion, the joiner reaches the next
		// block just after the first process has missed on it.
		joiner := sys.Spawn("joiner", func(p *core.Proc) { readStride(p, f, 0, total) })
		sys.Run()
		if allocs != 0 {
			t.Errorf("a miss with a joined waiter allocated %.1f times, want 0", allocs)
		}
		if st := first.Stats(); st.Misses != total {
			t.Errorf("first: %d misses, want %d", st.Misses, total)
		}
		if st := joiner.Stats(); st.Hits != total || st.Misses != 0 {
			t.Errorf("joiner: %d hits, %d misses; want %d hits on buffers still filling", st.Hits, st.Misses, total)
		}
		if r := sys.Disk(0).Stats().Reads; r != total {
			t.Errorf("%d disk reads, want %d: one per block, shared", r, total)
		}
	})
}

// BenchmarkSystemMissFill measures one demand miss end to end in the
// simulator: lookup, eviction, startFill, the CPU charge, the drive's three
// steps, completion and wake-up, all dispatched by the one process.
func BenchmarkSystemMissFill(b *testing.B) {
	sys := core.NewSystem(missConfig())
	f := sys.CreateFile("data", 0, missFileBlocks)
	sys.Spawn("app", func(p *core.Proc) { readStride(p, f, 0, b.N) })
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run()
}
