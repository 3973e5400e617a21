package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
)

func smallConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 50 * core.BlockSize
	return cfg
}

func TestCacheBlocksMatchesPaper(t *testing.T) {
	cases := map[float64]int{6.4: 819, 8: 1024, 12: 1536, 16: 2048}
	for mb, want := range cases {
		cfg := core.DefaultConfig()
		cfg.CacheBytes = core.MB(mb)
		if got := cfg.CacheBlocks(); got != want {
			t.Errorf("%.1f MB = %d blocks, want %d", mb, got, want)
		}
	}
}

func TestReadMissThenHit(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	f := sys.CreateFile("data", 0, 100)
	var missTime, hitTime sim.Time
	p := sys.Spawn("app", func(p *core.Proc) {
		start := p.Now()
		p.Read(f, 10)
		missTime = p.Now() - start
		start = p.Now()
		p.Read(f, 10)
		hitTime = p.Now() - start
	})
	sys.Run()
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.ReadCalls != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.DemandReads != 1 {
		t.Errorf("DemandReads = %d, want 1", st.DemandReads)
	}
	if hitTime >= missTime {
		t.Errorf("hit (%v) not faster than miss (%v)", hitTime, missTime)
	}
	if hitTime > 2*sim.Millisecond {
		t.Errorf("hit cost %v unreasonably high", hitTime)
	}
	if missTime < 5*sim.Millisecond {
		t.Errorf("miss cost %v implausibly low for a disk access", missTime)
	}
}

func TestReadAheadOverlapsComputation(t *testing.T) {
	run := func(readAhead bool) (sim.Time, core.ProcStats) {
		cfg := smallConfig()
		cfg.ReadAhead = readAhead
		sys := core.NewSystem(cfg)
		f := sys.CreateFile("data", 0, 40)
		p := sys.Spawn("app", func(p *core.Proc) {
			for b := int32(0); b < 40; b++ {
				p.Read(f, b)
				p.Compute(8 * sim.Millisecond) // compute > transfer time
			}
		})
		sys.Run()
		return p.Elapsed(), p.Stats()
	}
	tOff, stOff := run(false)
	tOn, stOn := run(true)
	// Same total I/O: every block is read exactly once either way.
	if got, want := stOn.BlockIOs(), stOff.BlockIOs(); got != want {
		t.Errorf("read-ahead changed I/O count: %d vs %d", got, want)
	}
	if stOn.Prefetches == 0 {
		t.Error("no prefetches issued")
	}
	// Read-ahead hides transfer behind compute: clearly faster.
	if float64(tOn) > float64(tOff)*0.9 {
		t.Errorf("read-ahead elapsed %v, not much better than %v", tOn, tOff)
	}
}

func TestReadAheadStopsAtEOF(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	f := sys.CreateFile("data", 0, 5)
	p := sys.Spawn("app", func(p *core.Proc) {
		for b := int32(0); b < 5; b++ {
			p.Read(f, b)
		}
	})
	sys.Run()
	if got := p.Stats().BlockIOs(); got != 5 {
		t.Errorf("BlockIOs = %d, want 5 (no phantom read past EOF)", got)
	}
}

func TestReadBeyondEOFPanics(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	f := sys.CreateFile("data", 0, 5)
	sys.Spawn("app", func(p *core.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("read beyond EOF did not panic")
			}
		}()
		p.Read(f, 5)
	})
	sys.Run()
}

func TestWriteBehindAndUpdateDaemon(t *testing.T) {
	cfg := smallConfig()
	sys := core.NewSystem(cfg)
	p := sys.Spawn("writer", func(p *core.Proc) {
		f := p.CreateFile("out", 0, 0)
		p.WriteSeq(f, 0, 10)
		if p.Now() > 100*sim.Millisecond {
			t.Error("writes did not complete quickly (write-behind broken)")
		}
		p.Compute(70 * sim.Second) // let the update daemon run twice
	})
	sys.Run()
	st := p.Stats()
	if st.WriteCalls != 10 || st.Misses != 10 {
		t.Errorf("stats = %+v", st)
	}
	if st.WriteBacks != 10 {
		t.Errorf("WriteBacks = %d, want 10 (daemon flush)", st.WriteBacks)
	}
	if w := sys.Disk(0).Stats().Writes; w != 10 {
		t.Errorf("disk writes = %d, want 10", w)
	}
}

func TestFinalSyncCountsLeftoverDirty(t *testing.T) {
	cfg := smallConfig()
	sys := core.NewSystem(cfg)
	p := sys.Spawn("writer", func(p *core.Proc) {
		f := p.CreateFile("out", 0, 0)
		p.WriteSeq(f, 0, 7) // exit immediately: daemon never fires
	})
	sys.Run()
	if got := p.Stats().WriteBacks; got != 7 {
		t.Errorf("WriteBacks = %d, want 7 from final sync", got)
	}
}

func TestRemoveFileDiscardsDirty(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	p := sys.Spawn("tmp", func(p *core.Proc) {
		f := p.CreateFile("tmpfile", 0, 0)
		p.WriteSeq(f, 0, 8)
		p.RemoveFile(f)
	})
	sys.Run()
	if got := p.Stats().WriteBacks; got != 0 {
		t.Errorf("WriteBacks = %d, want 0 (unlinked before flush)", got)
	}
	if w := sys.Disk(0).Stats().Writes; w != 0 {
		t.Errorf("disk writes = %d, want 0", w)
	}
}

// TestRemoveFileFreesPriorityRecord: the simulated sort keeps control
// while it creates, prioritises and removes temporaries; past
// acm.DefaultLimits.MaxFileRecords of them its set_priority must still
// succeed, because a removed file's record is gone with it.
func TestRemoveFileFreesPriorityRecord(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	sys.Spawn("sort", func(p *core.Proc) {
		if err := p.EnableControl(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 600; i++ {
			f := p.CreateFile(fmt.Sprintf("tmp%d", i), 0, 0)
			if err := p.SetPriority(f, 1); err != nil {
				t.Errorf("set_priority on file %d of the process: %v", i+1, err)
				return
			}
			p.WriteSeq(f, 0, 2)
			p.RemoveFile(f)
		}
	})
	sys.Run()
	sys.ACM().CheckInvariants()
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	sys := core.NewSystem(smallConfig()) // the daemon's first pass is 30 s away: eviction must flush
	p := sys.Spawn("app", func(p *core.Proc) {
		out := p.CreateFile("out", 0, 0)
		p.WriteSeq(out, 0, 10)
		big := p.CreateFile("big", 0, 200)
		p.ReadSeq(big, 0, 200) // evicts the dirty blocks
	})
	sys.Run()
	if got := p.Stats().WriteBacks; got != 10 {
		t.Errorf("WriteBacks = %d, want 10 via eviction", got)
	}
}

func TestPartialAccessesShareOneMiss(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	f := sys.CreateFile("data", 0, 10)
	p := sys.Spawn("app", func(p *core.Proc) {
		for off := 0; off < core.BlockSize; off += 1024 {
			p.Access(f, 3, off, 1024) // many small reads of one block
		}
	})
	sys.Run()
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 7 {
		t.Errorf("stats = %+v, want 1 miss 7 hits", st)
	}
}

func TestMRUPolicyEndToEnd(t *testing.T) {
	// The din pattern: a file slightly larger than the cache scanned
	// repeatedly. Smart (MRU) must beat oblivious (LRU) on block I/Os.
	run := func(smart bool) int64 {
		cfg := smallConfig() // 50-block cache
		sys := core.NewSystem(cfg)
		f := sys.CreateFile("trace", 0, 60)
		p := sys.Spawn("din", func(p *core.Proc) {
			if smart {
				if err := p.EnableControl(); err != nil {
					t.Fatal(err)
				}
				p.SetPriority(f, 0)
				p.SetPolicy(0, acm.MRU)
			}
			for scan := 0; scan < 5; scan++ {
				p.ReadSeq(f, 0, 60)
			}
		})
		sys.Run()
		return p.Stats().BlockIOs()
	}
	oblivious, smart := run(false), run(true)
	if oblivious != 5*60 {
		t.Errorf("oblivious I/Os = %d, want 300 (pure thrash)", oblivious)
	}
	if smart*2 >= oblivious {
		t.Errorf("smart I/Os = %d, want less than half of %d", smart, oblivious)
	}
}

func TestFbehaviorRequiresControl(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	f := sys.CreateFile("data", 0, 5)
	sys.Spawn("app", func(p *core.Proc) {
		if p.Controlled() {
			t.Error("Controlled true before EnableControl")
		}
		defer func() {
			if recover() == nil {
				t.Error("SetPriority without control did not panic")
			}
		}()
		p.SetPriority(f, 1)
	})
	sys.Run()
}

func TestControlLifecycle(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	f := sys.CreateFile("data", 0, 5)
	sys.Spawn("app", func(p *core.Proc) {
		if err := p.EnableControl(); err != nil {
			t.Fatal(err)
		}
		if err := p.EnableControl(); err == nil {
			t.Error("double EnableControl succeeded")
		}
		if !p.Controlled() || p.Manager() == nil {
			t.Error("not controlled after EnableControl")
		}
		p.SetPriority(f, 2)
		if p.GetPriority(f) != 2 {
			t.Error("GetPriority wrong")
		}
		p.SetPolicy(2, acm.MRU)
		if p.GetPolicy(2) != acm.MRU {
			t.Error("GetPolicy wrong")
		}
		p.Read(f, 0)
		p.SetTempPri(f, 0, 0, -1)
		p.DisableControl()
		if p.Controlled() {
			t.Error("still controlled after DisableControl")
		}
		p.DisableControl() // idempotent
	})
	sys.Run()
}

func TestConcurrentProcessesContend(t *testing.T) {
	solo := func() sim.Time {
		sys := core.NewSystem(smallConfig())
		f := sys.CreateFile("a", 0, 100)
		p := sys.Spawn("a", func(p *core.Proc) { p.ReadSeq(f, 0, 100) })
		sys.Run()
		return p.Elapsed()
	}()
	shared := func() sim.Time {
		sys := core.NewSystem(smallConfig())
		fa := sys.CreateFile("a", 0, 100)
		fb := sys.CreateFile("b", 0, 100)
		pa := sys.Spawn("a", func(p *core.Proc) { p.ReadSeq(fa, 0, 100) })
		sys.Spawn("b", func(p *core.Proc) { p.ReadSeq(fb, 0, 100) })
		sys.Run()
		return pa.Elapsed()
	}()
	if shared <= solo {
		t.Errorf("contended run (%v) not slower than solo (%v)", shared, solo)
	}
}

func TestSeparateDisksOverlap(t *testing.T) {
	run := func(sameDisk bool) sim.Time {
		sys := core.NewSystem(smallConfig())
		bDisk := 1
		if sameDisk {
			bDisk = 0
		}
		fa := sys.CreateFile("a", 0, 150)
		fb := sys.CreateFile("b", bDisk, 150)
		sys.Spawn("a", func(p *core.Proc) { p.ReadSeq(fa, 0, 150) })
		sys.Spawn("b", func(p *core.Proc) { p.ReadSeq(fb, 0, 150) })
		sys.Run()
		return sys.Engine().Now()
	}
	same, split := run(true), run(false)
	if split >= same {
		t.Errorf("two-disk run (%v) not faster than one-disk (%v)", split, same)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (sim.Time, int64) {
		sys := core.NewSystem(core.DefaultConfig())
		f := sys.CreateFile("data", 0, 500)
		p := sys.Spawn("app", func(p *core.Proc) {
			if err := p.EnableControl(); err != nil {
				t.Fatal(err)
			}
			p.SetPolicy(0, acm.MRU)
			rng := sim.NewRand(42)
			for i := 0; i < 2000; i++ {
				p.Read(f, int32(rng.Intn(500)))
				p.Compute(sim.Millisecond)
			}
		})
		sys.Run()
		return p.Elapsed(), p.Stats().BlockIOs()
	}
	e1, io1 := run()
	e2, io2 := run()
	if e1 != e2 || io1 != io2 {
		t.Errorf("runs differ: (%v, %d) vs (%v, %d)", e1, io1, e2, io2)
	}
}

func TestObliviousUnchangedAcrossKernels(t *testing.T) {
	// Criterion 1 end-to-end: an oblivious process has identical block
	// I/Os under the original kernel and under LRU-SP.
	run := func(alloc cache.Alloc) int64 {
		cfg := smallConfig()
		cfg.Alloc = alloc
		sys := core.NewSystem(cfg)
		f := sys.CreateFile("data", 0, 120)
		p := sys.Spawn("app", func(p *core.Proc) {
			rng := sim.NewRand(9)
			for i := 0; i < 3000; i++ {
				p.Read(f, int32(rng.Intn(120)))
			}
		})
		sys.Run()
		return p.Stats().BlockIOs()
	}
	if a, b := run(cache.GlobalLRU), run(cache.LRUSP); a != b {
		t.Errorf("oblivious I/Os differ: global-lru %d, lru-sp %d", a, b)
	}
}

func TestStatsComputeTime(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	p := sys.Spawn("app", func(p *core.Proc) {
		p.Compute(3 * sim.Second)
	})
	sys.Run()
	if p.Stats().ComputeTime != 3*sim.Second {
		t.Errorf("ComputeTime = %v", p.Stats().ComputeTime)
	}
	if p.Elapsed() != 3*sim.Second {
		t.Errorf("Elapsed = %v", p.Elapsed())
	}
	if len(sys.Procs()) != 1 || sys.Procs()[0] != p {
		t.Error("Procs() wrong")
	}
	if p.Name() != "app" || p.ID() != 0 {
		t.Error("identity wrong")
	}
}

func TestSharedFileOwnershipFollowsUse(t *testing.T) {
	// Two processes take turns scanning one shared file cyclically. With
	// SharedFiles on, whoever is active owns the blocks and its MRU
	// policy protects the shared prefix; the handoff must not lose the
	// cached contents.
	cfg := smallConfig() // 50-block cache
	cfg.SharedFiles = true
	sys := core.NewSystem(cfg)
	f := sys.CreateFile("shared", 0, 40)
	a := sys.Spawn("a", func(p *core.Proc) {
		if err := p.EnableControl(); err != nil {
			t.Error(err)
			return
		}
		p.SetPolicy(0, acm.MRU)
		p.ReadSeq(f, 0, 40)
	})
	b := sys.Spawn("b", func(p *core.Proc) {
		p.Compute(20 * sim.Second) // run strictly after a
		if err := p.EnableControl(); err != nil {
			t.Error(err)
			return
		}
		p.SetPolicy(0, acm.MRU)
		p.ReadSeq(f, 0, 40)
	})
	sys.Run()
	if got := a.Stats().BlockIOs(); got != 40 {
		t.Errorf("a did %d I/Os, want 40 compulsory", got)
	}
	// b arrives after a finished: every block is still cached, and each
	// hit transfers ownership.
	if got := b.Stats().BlockIOs(); got != 0 {
		t.Errorf("b did %d I/Os, want 0 (shared cache contents)", got)
	}
	if tr := sys.Cache().Stats().Transfers; tr != 40 {
		t.Errorf("Transfers = %d, want 40", tr)
	}
}

func TestSharedFilesOffNoTransfer(t *testing.T) {
	cfg := smallConfig()
	sys := core.NewSystem(cfg)
	f := sys.CreateFile("shared", 0, 10)
	sys.Spawn("a", func(p *core.Proc) { p.ReadSeq(f, 0, 10) })
	sys.Spawn("b", func(p *core.Proc) {
		p.Compute(5 * sim.Second)
		p.ReadSeq(f, 0, 10)
	})
	sys.Run()
	if tr := sys.Cache().Stats().Transfers; tr != 0 {
		t.Errorf("Transfers = %d with SharedFiles off", tr)
	}
}

func TestWriteAccessReadModifyWrite(t *testing.T) {
	cfg := smallConfig()
	sys := core.NewSystem(cfg)
	f := sys.CreateFile("data", 0, 10)
	p := sys.Spawn("app", func(p *core.Proc) {
		// Partial write to an uncached existing block: must read first.
		p.WriteAccess(f, 3, 100, 512)
		st := p.Stats()
		if st.DemandReads != 1 {
			t.Errorf("partial write did %d reads, want 1 (RMW)", st.DemandReads)
		}
		// Partial write to the now-cached block: no further read.
		p.WriteAccess(f, 3, 700, 512)
		if got := p.Stats().DemandReads; got != 1 {
			t.Errorf("cached partial write read again: %d", got)
		}
		// Full-block write path via WriteAccess delegates to Write.
		p.WriteAccess(f, 4, 0, core.BlockSize)
		if got := p.Stats().DemandReads; got != 1 {
			t.Errorf("full-block write read the block: %d", got)
		}
	})
	sys.Run()
	if p.Stats().WriteCalls != 3 {
		t.Errorf("WriteCalls = %d, want 3", p.Stats().WriteCalls)
	}
}

func TestWriteAccessGrowSkipsRead(t *testing.T) {
	// A partial write that extends the file writes into a fresh block:
	// nothing to read back.
	sys := core.NewSystem(smallConfig())
	p := sys.Spawn("app", func(p *core.Proc) {
		f := p.CreateFile("new", 0, 0)
		p.WriteAccess(f, 0, 0, 1000)
		if got := p.Stats().DemandReads; got != 0 {
			t.Errorf("grow-write read %d blocks, want 0", got)
		}
		if f.Size() != 1 {
			t.Errorf("file size = %d, want 1", f.Size())
		}
	})
	sys.Run()
	if p.Stats().WriteBacks != 1 {
		t.Errorf("WriteBacks = %d, want 1", p.Stats().WriteBacks)
	}
}

func TestSpreadSyncSmoothsWrites(t *testing.T) {
	// A writer dirties blocks steadily while a reader does latency-
	// sensitive reads on the same disk. Burst sync dumps all aged blocks
	// at once; spread sync trickles them.
	run := func(spread bool) (maxQueue int) {
		cfg := core.DefaultConfig()
		cfg.CacheBytes = core.MB(6.4)
		cfg.SpreadSync = spread
		sys := core.NewSystem(cfg)
		p := sys.Spawn("writer", func(p *core.Proc) {
			f := p.CreateFile("log", 0, 0)
			for b := int32(0); b < 600; b++ {
				p.Write(f, b)
				p.Compute(100 * sim.Millisecond)
			}
		})
		sys.Run()
		_ = p
		return sys.Disk(0).Stats().MaxQueue
	}
	burst, spread := run(false), run(true)
	if spread >= burst {
		t.Errorf("spread sync max queue %d not below burst sync's %d", spread, burst)
	}
}

func TestSpreadSyncSameWriteCount(t *testing.T) {
	run := func(spread bool) int64 {
		cfg := core.DefaultConfig()
		cfg.SpreadSync = spread
		sys := core.NewSystem(cfg)
		p := sys.Spawn("writer", func(p *core.Proc) {
			f := p.CreateFile("log", 0, 0)
			p.WriteSeq(f, 0, 50)
			p.Compute(70 * sim.Second)
		})
		sys.Run()
		return p.Stats().WriteBacks
	}
	if b, s := run(false), run(true); b != s {
		t.Errorf("write counts differ: burst %d vs spread %d", b, s)
	}
}

func TestSystemAccessors(t *testing.T) {
	cfg := smallConfig()
	sys := core.NewSystem(cfg)
	if sys.FS() == nil || sys.Engine() == nil || sys.ACM() == nil || sys.InodeCache() == nil {
		t.Error("accessor returned nil")
	}
	if sys.Config().CacheBytes != cfg.CacheBytes {
		t.Error("Config accessor wrong")
	}
	if sys.Cache().Alloc() != cfg.Alloc {
		t.Error("Alloc accessor wrong")
	}
}

func TestCacheBlocksFloor(t *testing.T) {
	cfg := core.Config{CacheBytes: 1} // less than a block
	if cfg.CacheBlocks() != 1 {
		t.Errorf("CacheBlocks = %d, want floor of 1", cfg.CacheBlocks())
	}
}

func TestCreateFilePanicsOnDuplicate(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	sys.CreateFile("dup", 0, 1)
	sys.Spawn("app", func(p *core.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("duplicate CreateFile did not panic")
			}
		}()
		p.CreateFile("dup", 0, 1)
	})
	sys.Run()
}

func TestRemoveFilePanicsOnMissing(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	f := sys.CreateFile("once", 0, 1)
	sys.Spawn("app", func(p *core.Proc) {
		p.RemoveFile(f)
		defer func() {
			if recover() == nil {
				t.Error("double RemoveFile did not panic")
			}
		}()
		p.RemoveFile(f)
	})
	sys.Run()
}

func TestDaemonFlushOfRemovedFile(t *testing.T) {
	// A file removed between dirtying and a daemon tick: the dirty blocks
	// vanish with InvalidateFile, so the daemon has nothing to flush and
	// no I/O is charged.
	cfg := smallConfig()
	sys := core.NewSystem(cfg)
	p := sys.Spawn("app", func(p *core.Proc) {
		f := p.CreateFile("tmp", 0, 0)
		p.WriteSeq(f, 0, 5)
		p.RemoveFile(f)
		p.Compute(40 * sim.Second) // daemon ticks after removal
	})
	sys.Run()
	if p.Stats().WriteBacks != 0 {
		t.Errorf("WriteBacks = %d, want 0", p.Stats().WriteBacks)
	}
}

func TestOpenEmptyFileNoDiskRead(t *testing.T) {
	sys := core.NewSystem(smallConfig())
	p := sys.Spawn("app", func(p *core.Proc) {
		f := p.CreateFile("empty2", 1, 0)
		// Fill the inode cache so a later Open misses.
		for i := 0; i < 400; i++ {
			g := p.CreateFile(fmt.Sprintf("filler%d", i), 0, 0)
			p.Open(g)
		}
		p.Open(f) // inode miss on an empty file: CPU only
	})
	sys.Run()
	if r := sys.Disk(1).Stats().Reads; r != 0 {
		t.Errorf("empty-file open read %d blocks", r)
	}
	if p.Stats().MetadataReads == 0 {
		t.Error("expected at least one metadata miss")
	}
}

func TestWaitValidMultipleWaiters(t *testing.T) {
	// Two processes hit the same in-flight block: both must sleep until
	// the fill completes, and only one disk read happens.
	cfg := smallConfig()
	cfg.ReadAhead = false
	sys := core.NewSystem(cfg)
	f := sys.CreateFile("data", 0, 5)
	var tA, tB sim.Time
	sys.Spawn("a", func(p *core.Proc) {
		p.Read(f, 0)
		tA = p.Now()
	})
	sys.Spawn("b", func(p *core.Proc) {
		p.Read(f, 0) // same block, same instant
		tB = p.Now()
	})
	sys.Run()
	if r := sys.Disk(0).Stats().Reads; r != 1 {
		t.Errorf("disk reads = %d, want 1 (second access waits, not re-reads)", r)
	}
	if tB < tA {
		t.Errorf("b (%v) finished before a (%v)?", tB, tA)
	}
}

// TestProcStatsAddSumsEveryField: with every ProcStats field set to a
// distinct non-zero value on both sides, Add returns the sum field by
// field — a counter added to the struct folds without an Add line.
func TestProcStatsAddSumsEveryField(t *testing.T) {
	var a, b core.ProcStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum := a
	sum.Add(b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("ProcStats.%s: Add(%d, %d) = %d, want %d",
				sv.Type().Field(i).Name, i+1, 100*(i+1), got, want)
		}
	}
}
