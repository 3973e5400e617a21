package disk

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

func newTestDisk(t *testing.T, g Geometry) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.New()
	bus := NewBus(eng)
	return eng, New(eng, g, bus, 1)
}

func TestGeometryBlocks(t *testing.T) {
	if got := RZ56.Blocks(); got != 665*128 {
		t.Errorf("RZ56.Blocks() = %d, want %d", got, 665*128)
	}
	if got := RZ26.Blocks(); got != 1050*128 {
		t.Errorf("RZ26.Blocks() = %d, want %d", got, 1050*128)
	}
}

func TestTransferTime(t *testing.T) {
	// 8 KB at 1.875 MB/s is about 4.37 ms.
	tt := RZ56.transferTime()
	if tt < sim.FromMillis(4.2) || tt > sim.FromMillis(4.5) {
		t.Errorf("RZ56 transfer time %v, want about 4.37ms", tt)
	}
	// 8 KB at 3.3 MB/s is about 2.48 ms.
	tt = RZ26.transferTime()
	if tt < sim.FromMillis(2.3) || tt > sim.FromMillis(2.6) {
		t.Errorf("RZ26 transfer time %v, want about 2.48ms", tt)
	}
}

func TestSeqEfficiencyDefault(t *testing.T) {
	if e := (Geometry{}).seqEff(); e != 0.55 {
		t.Errorf("default seqEff = %v, want 0.55", e)
	}
	if e := (Geometry{SeqEfficiency: 0.8}).seqEff(); e != 0.8 {
		t.Errorf("explicit seqEff = %v, want 0.8", e)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("Op.String wrong")
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	eng, d := newTestDisk(t, RZ56)
	var seqTime, randTime sim.Time
	eng.Spawn("seq", func(p *sim.Proc) {
		// Warm the head position.
		d.Access(p, Read, 0)
		start := p.Now()
		for i := 1; i <= 100; i++ {
			d.Access(p, Read, i)
		}
		seqTime = p.Now() - start

		start = p.Now()
		rng := sim.NewRand(7)
		for i := 0; i < 100; i++ {
			d.Access(p, Read, rng.Intn(d.Geometry().Blocks()))
		}
		randTime = p.Now() - start
	})
	eng.Run()
	if seqTime*2 > randTime {
		t.Errorf("sequential (%v) not much faster than random (%v)", seqTime, randTime)
	}
	st := d.Stats()
	if st.Sequential < 100 {
		t.Errorf("Sequential count %d, want >= 100", st.Sequential)
	}
	if st.Reads != 201 {
		t.Errorf("Reads = %d, want 201", st.Reads)
	}
}

func TestRandomAccessCostNearDataSheet(t *testing.T) {
	// Average random access should be near avg seek + avg rot + transfer.
	eng, d := newTestDisk(t, RZ56)
	const n = 2000
	var total sim.Time
	eng.Spawn("rand", func(p *sim.Proc) {
		rng := sim.NewRand(99)
		prev := p.Now()
		for i := 0; i < n; i++ {
			d.Access(p, Read, rng.Intn(d.Geometry().Blocks()))
			total += p.Now() - prev
			prev = p.Now()
		}
	})
	eng.Run()
	avg := total / n
	// Data-sheet expectation: ~16 + 8.3 + 4.4 = ~28.7 ms. The sqrt seek
	// model plus uniform addresses should land within 25%.
	lo, hi := sim.FromMillis(21), sim.FromMillis(36)
	if avg < lo || avg > hi {
		t.Errorf("average random access %v, want within [%v, %v]", avg, lo, hi)
	}
}

func TestQueueContention(t *testing.T) {
	// Two processes hammering one disk should finish strictly later than
	// one process doing half the work.
	solo := func() sim.Time {
		eng, d := newTestDisk(t, RZ56)
		eng.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				d.Access(p, Read, i*100)
			}
		})
		eng.Run()
		return eng.Now()
	}()
	duo := func() sim.Time {
		eng, d := newTestDisk(t, RZ56)
		for pi := 0; pi < 2; pi++ {
			base := pi * 40000
			eng.Spawn("p", func(p *sim.Proc) {
				for i := 0; i < 50; i++ {
					d.Access(p, Read, base+i*100)
				}
			})
		}
		eng.Run()
		return eng.Now()
	}()
	if duo <= solo {
		t.Errorf("two contending processes (%v) not slower than one (%v)", duo, solo)
	}
}

func TestBusContentionAcrossDisks(t *testing.T) {
	// Two disks on one bus: transfers serialize, so two disks streaming
	// concurrently take longer than either alone, but far less than 2x
	// (positioning overlaps).
	run := func(two bool) sim.Time {
		eng := sim.New()
		bus := NewBus(eng)
		d1 := New(eng, RZ56, bus, 1)
		d2 := New(eng, RZ26, bus, 2)
		eng.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < 500; i++ {
				d1.Access(p, Read, i)
			}
		})
		if two {
			eng.Spawn("b", func(p *sim.Proc) {
				for i := 0; i < 500; i++ {
					d2.Access(p, Read, i)
				}
			})
		}
		eng.Run()
		return eng.Now()
	}
	one, both := run(false), run(true)
	if both <= one {
		t.Errorf("bus-sharing run (%v) not slower than solo run (%v)", both, one)
	}
	if both > one*2 {
		t.Errorf("bus-sharing run (%v) worse than fully serial (%v)", both, one*2)
	}
}

func TestTwoDisksOverlapPositioning(t *testing.T) {
	// Random workloads on two disks should overlap nearly perfectly since
	// positioning dominates and only transfers share the bus.
	run := func(two bool) sim.Time {
		eng := sim.New()
		bus := NewBus(eng)
		d1 := New(eng, RZ56, bus, 1)
		d2 := New(eng, RZ26, bus, 2)
		rng := sim.NewRand(5)
		addrs := make([]int, 200)
		for i := range addrs {
			addrs[i] = rng.Intn(80000)
		}
		eng.Spawn("a", func(p *sim.Proc) {
			for _, a := range addrs {
				d1.Access(p, Read, a)
			}
		})
		if two {
			eng.Spawn("b", func(p *sim.Proc) {
				for _, a := range addrs {
					d2.Access(p, Read, a)
				}
			})
		}
		eng.Run()
		return eng.Now()
	}
	one, both := run(false), run(true)
	if float64(both) > float64(one)*1.3 {
		t.Errorf("two-disk random run (%v) should be within 30%% of solo (%v)", both, one)
	}
}

func TestWriteCounts(t *testing.T) {
	eng, d := newTestDisk(t, RZ26)
	eng.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			d.Access(p, Write, i)
		}
		d.Access(p, Read, 500)
	})
	eng.Run()
	st := d.Stats()
	if st.Writes != 10 || st.Reads != 1 {
		t.Errorf("stats = %+v, want 10 writes 1 read", st)
	}
	if st.IOs() != 11 {
		t.Errorf("IOs = %d, want 11", st.IOs())
	}
}

func TestStartIsAsync(t *testing.T) {
	eng, d := newTestDisk(t, RZ56)
	var doneAt sim.Time
	eng.Spawn("a", func(p *sim.Proc) {
		d.Start(Write, 1000, func(t sim.Time) { doneAt = t })
		if p.Now() != 0 {
			t.Error("Start blocked the caller")
		}
		p.Sleep(sim.Second)
		if doneAt == 0 || doneAt > p.Now() {
			t.Errorf("async write completed at %v, want before now", doneAt)
		}
	})
	eng.Run()
	if w := d.Stats().Writes; w != 1 {
		t.Errorf("Writes = %d, want 1", w)
	}
}

func TestElevatorSortsWrites(t *testing.T) {
	// Queue many scattered writes while idle; the server must service
	// them in ascending order (C-LOOK), which a completion trace shows.
	eng, d := newTestDisk(t, RZ56)
	var order []int
	addrs := []int{50000, 10000, 30000, 20000, 40000}
	eng.Spawn("a", func(p *sim.Proc) {
		for _, a := range addrs {
			a := a
			d.Start(Write, a, func(sim.Time) { order = append(order, a) })
		}
		p.Sleep(10 * sim.Second)
	})
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("completed %d writes, want 5", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Errorf("service order %v not sorted (elevator broken)", order)
		}
	}
}

func TestElevatorWrapsAround(t *testing.T) {
	// With the head beyond all queued addresses, C-LOOK wraps to the
	// lowest one.
	eng, d := newTestDisk(t, RZ56)
	var order []int
	eng.Spawn("a", func(p *sim.Proc) {
		d.Access(p, Read, 60000) // park the head high
		for _, a := range []int{3000, 1000, 2000} {
			a := a
			d.Start(Write, a, func(sim.Time) { order = append(order, a) })
		}
		p.Sleep(5 * sim.Second)
	})
	eng.Run()
	want := []int{1000, 2000, 3000}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestWritesBatchBehindReadStream(t *testing.T) {
	// A sequential read stream that keeps the queue primed (as cluster
	// read-ahead does) with interleaved scattered async writes: the
	// elevator should let the reads stream and defer the writes, so the
	// stream finishes much sooner than if each write interrupted it.
	eng, d := newTestDisk(t, RZ56)
	var streamDone sim.Time
	var writeDones []sim.Time
	eng.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			i := i
			d.Start(Read, i, func(tm sim.Time) {
				if i == 199 {
					streamDone = tm
				}
			})
			if i%10 == 5 {
				d.Start(Write, 70000+i*10, func(tm sim.Time) {
					writeDones = append(writeDones, tm)
				})
			}
		}
		p.Sleep(30 * sim.Second) // let everything drain
	})
	eng.Run()
	// 200 queued sequential reads at ~8 ms each must stream without
	// being interrupted by the 20 scattered writes; if every write
	// forced a round trip the stream would take 20 x ~35 ms longer.
	if streamDone > 2500*sim.Millisecond {
		t.Errorf("read stream finished at %v; writes not deferred by elevator", streamDone)
	}
	if len(writeDones) != 20 {
		t.Fatalf("completed %d writes, want 20", len(writeDones))
	}
	for _, w := range writeDones {
		if w < streamDone {
			t.Errorf("write completed at %v, before the read stream finished (%v)", w, streamDone)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	eng, d := newTestDisk(t, RZ56)
	eng.Spawn("a", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range access did not panic")
			}
		}()
		d.Access(p, Read, d.Geometry().Blocks())
	})
	eng.Run()
}

func TestDeterministicService(t *testing.T) {
	trace := func() []sim.Time {
		eng, d := newTestDisk(t, RZ56)
		var times []sim.Time
		eng.Spawn("a", func(p *sim.Proc) {
			rng := sim.NewRand(3)
			for i := 0; i < 200; i++ {
				d.Access(p, Read, rng.Intn(50000))
				times = append(times, p.Now())
			}
		})
		eng.Run()
		return times
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at access %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRZ26FasterThanRZ56(t *testing.T) {
	runOn := func(g Geometry) sim.Time {
		eng, d := newTestDisk(t, g)
		eng.Spawn("a", func(p *sim.Proc) {
			rng := sim.NewRand(11)
			for i := 0; i < 300; i++ {
				d.Access(p, Read, rng.Intn(80000))
			}
		})
		eng.Run()
		return eng.Now()
	}
	if t56, t26 := runOn(RZ56), runOn(RZ26); t26 >= t56 {
		t.Errorf("RZ26 (%v) not faster than RZ56 (%v)", t26, t56)
	}
}

func TestQueueLenAndMaxQueue(t *testing.T) {
	eng, d := newTestDisk(t, RZ56)
	eng.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			d.Start(Write, i*1000, nil)
		}
		if d.QueueLen() == 0 {
			t.Error("QueueLen = 0 right after queueing")
		}
		p.Sleep(10 * sim.Second)
		if d.QueueLen() != 0 {
			t.Errorf("QueueLen = %d after drain, want 0", d.QueueLen())
		}
	})
	eng.Run()
	if d.Stats().MaxQueue < 7 {
		t.Errorf("MaxQueue = %d, want >= 7", d.Stats().MaxQueue)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero TrackBlocks did not panic")
		}
	}()
	eng := sim.New()
	New(eng, Geometry{Name: "bad"}, NewBus(eng), 1)
}

func TestFIFOServesInArrivalOrder(t *testing.T) {
	eng, d := newTestDisk(t, RZ56)
	d.SetScheduler(FIFO)
	if d.Scheduler() != FIFO || FIFO.String() != "fifo" || CLOOK.String() != "c-look" {
		t.Error("scheduler accessors wrong")
	}
	var order []int
	addrs := []int{50000, 10000, 30000}
	eng.Spawn("a", func(p *sim.Proc) {
		for _, a := range addrs {
			a := a
			d.Start(Write, a, func(sim.Time) { order = append(order, a) })
		}
		p.Sleep(5 * sim.Second)
	})
	eng.Run()
	for i := range addrs {
		if order[i] != addrs[i] {
			t.Fatalf("FIFO served %v, want %v", order, addrs)
		}
	}
}

func TestFIFOSlowerThanElevatorUnderScatter(t *testing.T) {
	run := func(s Sched) sim.Time {
		eng, d := newTestDisk(t, RZ56)
		d.SetScheduler(s)
		rng := sim.NewRand(9)
		eng.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < 64; i++ {
				d.Start(Write, rng.Intn(80000), nil)
			}
			p.Sleep(30 * sim.Second)
		})
		eng.Run()
		return sim.FromMillis(d.Stats().BusyTotal.Millis())
	}
	fifo, clook := run(FIFO), run(CLOOK)
	if clook >= fifo {
		t.Errorf("elevator busy time %v not below FIFO's %v on scattered writes", clook, fifo)
	}
}

// TestWaitTotalThreeRequestQueue checks the queueing-delay counter against
// a queue worked out by hand. Blocks 0, 1 and 2 queued at t=0 stream from
// the track buffer: 8192 bytes at 1.875 MB/s is 4369 µs, over the 0.55
// sequential efficiency 7943 µs a block, plus a 1500 µs track switch for
// block 0. So they complete at 9443, 17386 and 25329 µs, having waited 0,
// 9443 and 17386 µs for service to begin. A request that finds the drive
// idle waits for nothing.
func TestWaitTotalThreeRequestQueue(t *testing.T) {
	eng, d := newTestDisk(t, RZ56)
	var done []sim.Time
	eng.Spawn("a", func(p *sim.Proc) {
		for addr := 0; addr < 3; addr++ {
			d.Start(Write, addr, func(t sim.Time) { done = append(done, t) })
		}
		p.Sleep(sim.Second)
		if got, want := d.Stats().WaitTotal, sim.Time(9443+17386); got != want {
			t.Errorf("WaitTotal = %d µs after three queued writes, want %d", got, want)
		}
		d.Access(p, Read, 3)
	})
	eng.Run()
	if want := []sim.Time{9443, 17386, 25329}; !slices.Equal(done, want) {
		t.Errorf("completions at %v, want %v", done, want)
	}
	if got, want := d.Stats().WaitTotal, sim.Time(9443+17386); got != want {
		t.Errorf("WaitTotal = %d µs after a request to the idle drive, want it still %d", got, want)
	}
}

// TestAccessZeroAllocs is the allocation gate for the synchronous read
// Proc.Open uses: once a record exists, Access — enqueue, the drive's three
// steps, the completion's Broadcast, the caller's wake-up — allocates
// nothing, and the caller, alone, dispatches it all without a switch.
func TestAccessZeroAllocs(t *testing.T) {
	eng, d := newTestDisk(t, RZ56)
	var allocs float64
	var last sim.Time
	eng.Spawn("reader", func(p *sim.Proc) {
		d.Access(p, Read, 0) // the first call makes the record
		addr := 1000
		allocs = testing.AllocsPerRun(100, func() {
			last = d.Access(p, Read, addr)
			addr += 500
		})
		if last != p.Now() {
			t.Errorf("Access returned %v at %v", last, p.Now())
		}
	})
	eng.Run()
	if allocs != 0 {
		t.Errorf("Access allocated %.1f times per call, want 0", allocs)
	}
	if r := d.Stats().Reads; r != 102 {
		t.Errorf("%d reads, want 102", r)
	}
	if h := eng.Stats().Handoffs; h != 1 {
		t.Errorf("Handoffs = %d, want 1", h)
	}
}

// BenchmarkDiskStream measures the drive under the simulator's commonest
// pattern: one process scanning a file, a block of read-ahead in flight
// while it consumes the one before. Every block is an enqueue, the drive's
// three steps, a completion callback and a wait; ns/op is the cost of all
// of it per block and handoffs/block how many coroutine switches it took
// (the scanner dispatches the drive's steps itself, so none).
func BenchmarkDiskStream(b *testing.B) {
	eng := sim.New()
	d := New(eng, RZ56, NewBus(eng), 1)
	blocks := d.Geometry().Blocks()
	eng.Spawn("scan", func(p *sim.Proc) {
		ready := eng.NewCond()
		arrived := 0
		onDone := func(sim.Time) {
			arrived++
			ready.Signal()
		}
		d.Start(Read, 0, onDone)
		for i := 0; i < b.N; i++ {
			d.Start(Read, (i+1)%blocks, onDone)
			for arrived <= i {
				ready.Wait(p)
			}
			p.Sleep(500 * sim.Microsecond) // consume block i
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.ReportMetric(float64(eng.Stats().Handoffs)/float64(b.N), "handoffs/block")
}
