package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := FromMillis(2.5); got != 2500*Microsecond {
		t.Errorf("FromMillis(2.5) = %v, want 2500us", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (3 * Millisecond).Millis(); got != 3.0 {
		t.Errorf("Millis() = %v, want 3", got)
	}
	if got := Second.String(); got != "1.000000s" {
		t.Errorf("String() = %q", got)
	}
}

func TestSingleProcSleep(t *testing.T) {
	e := New()
	var wokeAt Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		wokeAt = p.Now()
	})
	e.Run()
	if wokeAt != 10*Millisecond {
		t.Errorf("woke at %v, want 10ms", wokeAt)
	}
	if e.Now() != 10*Millisecond {
		t.Errorf("engine ended at %v, want 10ms", e.Now())
	}
}

func TestSleepUntilPastClamps(t *testing.T) {
	e := New()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		p.SleepUntil(1 * Millisecond) // in the past; must not rewind
		if p.Now() != 5*Millisecond {
			t.Errorf("now = %v after past SleepUntil, want 5ms", p.Now())
		}
	})
	e.Run()
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := New()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(-3 * Second)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	e.Run()
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		var order []string
		e := New()
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				order = append(order, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				order = append(order, "b")
			}
		})
		e.Run()
		return order
	}
	first := run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: order %v differs from first run %v", trial, got, first)
			}
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	// Events scheduled for the same instant run in schedule order.
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.SleepUntil(100)
			order = append(order, i)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSpawnAtDelayedStart(t *testing.T) {
	e := New()
	var began Time
	p := e.SpawnAt("late", 7*Second, func(p *Proc) {
		began = p.Now()
	})
	e.Run()
	if began != 7*Second {
		t.Errorf("began at %v, want 7s", began)
	}
	if p.StartTime() != 7*Second {
		t.Errorf("StartTime = %v, want 7s", p.StartTime())
	}
	if p.EndTime() != 7*Second {
		t.Errorf("EndTime = %v, want 7s", p.EndTime())
	}
}

func TestSpawnAtPastPanics(t *testing.T) {
	e := New()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(Second)
		defer func() {
			if recover() == nil {
				t.Error("SpawnAt in the past did not panic")
			}
		}()
		e.SpawnAt("bad", 0, func(*Proc) {})
	})
	e.Run()
}

func TestProcElapsed(t *testing.T) {
	e := New()
	p := e.SpawnAt("w", 2*Second, func(p *Proc) {
		p.Sleep(3 * Second)
	})
	e.Run()
	if p.Elapsed() != 3*Second {
		t.Errorf("Elapsed = %v, want 3s", p.Elapsed())
	}
	if p.State() != Done {
		t.Errorf("State = %v, want Done", p.State())
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	e := New()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Second)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(Second)
			childRan = true
		})
		p.Sleep(5 * Second)
	})
	e.Run()
	if !childRan {
		t.Error("child process never ran")
	}
	if e.Now() != 6*Second {
		t.Errorf("end time %v, want 6s", e.Now())
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	e := New()
	e.Spawn("boom", func(p *Proc) {
		panic("kaboom")
	})
	defer func() {
		r := recover()
		if r != "kaboom" {
			t.Errorf("recovered %v, want kaboom", r)
		}
	}()
	e.Run()
}

func TestRunTwicePanics(t *testing.T) {
	e := New()
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	e.Run()
}

func TestCondSignalFIFO(t *testing.T) {
	e := New()
	c := e.NewCond()
	var order []string
	e.Spawn("w1", func(p *Proc) {
		c.Wait(p)
		order = append(order, "w1")
	})
	e.Spawn("w2", func(p *Proc) {
		c.Wait(p)
		order = append(order, "w2")
	})
	e.Spawn("signaller", func(p *Proc) {
		p.Sleep(Second)
		if c.Waiters() != 2 {
			t.Errorf("Waiters = %d, want 2", c.Waiters())
		}
		c.Signal()
		p.Sleep(Second)
		c.Broadcast()
	})
	e.Run()
	if len(order) != 2 || order[0] != "w1" || order[1] != "w2" {
		t.Errorf("wake order = %v, want [w1 w2]", order)
	}
}

func TestCondSignalEmpty(t *testing.T) {
	e := New()
	c := e.NewCond()
	if c.Signal() {
		t.Error("Signal on empty cond reported a wake")
	}
	c.Broadcast() // must not panic
}

func TestDeadlockDetected(t *testing.T) {
	e := New()
	c := e.NewCond()
	e.Spawn("stuck", func(p *Proc) {
		c.Wait(p) // nobody will ever signal
	})
	defer func() {
		if recover() == nil {
			t.Error("deadlocked Run did not panic")
		}
	}()
	e.Run()
}

func TestResourceFCFS(t *testing.T) {
	e := New()
	r := e.NewResource("disk")
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("u", func(p *Proc) {
			_, end := r.Use(p, 10*Millisecond)
			ends = append(ends, end)
			if end != p.Now() {
				t.Errorf("Use returned end %v but woke at %v", end, p.Now())
			}
		})
	}
	e.Run()
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("request %d ended at %v, want %v", i, ends[i], want[i])
		}
	}
	st := r.Stats()
	if st.Requests != 3 {
		t.Errorf("Requests = %d, want 3", st.Requests)
	}
	if st.BusyTotal != 30*Millisecond {
		t.Errorf("BusyTotal = %v, want 30ms", st.BusyTotal)
	}
	if st.WaitTotal != 30*Millisecond { // 0 + 10 + 20
		t.Errorf("WaitTotal = %v, want 30ms", st.WaitTotal)
	}
	if u := st.Utilization(30 * Millisecond); u != 1.0 {
		t.Errorf("Utilization = %v, want 1.0", u)
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := New()
	r := e.NewResource("r")
	e.Spawn("a", func(p *Proc) {
		r.Use(p, 5*Millisecond)
		p.Sleep(100 * Millisecond) // leave the resource idle
		start, _ := r.Use(p, 5*Millisecond)
		if start != 105*Millisecond {
			t.Errorf("second use started at %v, want 105ms", start)
		}
	})
	e.Run()
}

func TestResourceNegativeServicePanics(t *testing.T) {
	e := New()
	r := e.NewResource("r")
	e.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative service did not panic")
			}
		}()
		r.Use(p, -1)
	})
	e.Run()
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced all-zero stream")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n(1000) = %d out of range", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of range", v)
		}
		if v := r.Duration(Second); v < 0 || v >= Second {
			t.Fatalf("Duration(1s) = %v out of range", v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	r := NewRand(1)
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRandPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := NewRand(seed)
		p := r.Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestRandUniformish(t *testing.T) {
	r := NewRand(99)
	const n, buckets = 100000, 10
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Errorf("bucket %d count %d far from uniform %d", b, c, n/buckets)
		}
	}
}

// every re-arms tick at the given period from now on: the shape of a
// background daemon written as a callback.
func every(e *Engine, period Time, tick func()) {
	var fire func()
	fire = func() {
		tick()
		e.At(e.Now()+period, fire)
	}
	e.At(e.Now()+period, fire)
}

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	e := New()
	ticks := 0
	every(e, Second, func() { ticks++ })
	e.Spawn("work", func(p *Proc) {
		p.Sleep(3500 * Millisecond)
	})
	e.Run()
	if ticks != 3 {
		t.Errorf("daemon ticked %d times, want 3", ticks)
	}
	if e.Now() != 3500*Millisecond {
		t.Errorf("ended at %v, want 3.5s", e.Now())
	}
}

func TestDaemonFinishingNormally(t *testing.T) {
	e := New()
	fired := false
	e.At(Second, func() { fired = true }) // does not re-arm
	e.Spawn("w", func(p *Proc) { p.Sleep(5 * Second) })
	e.Run()
	if !fired {
		t.Error("the one-shot callback never ran")
	}
	if e.Now() != 5*Second {
		t.Errorf("ended at %v, want 5s", e.Now())
	}
}

func TestOnlyDaemonsRunEndsImmediately(t *testing.T) {
	e := New()
	every(e, Second, func() { t.Error("a callback ran in an engine with no process") })
	e.Run()
	if e.Now() != 0 {
		t.Errorf("engine with only daemons advanced to %v, want 0", e.Now())
	}
}

// Property: for any set of sleep durations, total elapsed equals the sum and
// the engine never reorders a single process's steps.
func TestQuickSleepAccumulates(t *testing.T) {
	f := func(durs []uint16) bool {
		e := New()
		var total Time
		e.Spawn("p", func(p *Proc) {
			for _, d := range durs {
				p.Sleep(Time(d))
				total += Time(d)
			}
		})
		e.Run()
		return e.Now() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestProcAccessors(t *testing.T) {
	e := New()
	p := e.Spawn("worker", func(p *Proc) {
		if p.ID() != 0 {
			t.Errorf("ID = %d", p.ID())
		}
		if p.Name() != "worker" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine accessor wrong")
		}
		p.Yield()
	})
	e.Run()
	_ = p
}

func TestResourceName(t *testing.T) {
	e := New()
	r := e.NewResource("disk0")
	if r.Name() != "disk0" {
		t.Errorf("Name = %q", r.Name())
	}
	if (ResourceStats{}).Utilization(0) != 0 {
		t.Error("Utilization at t=0 not 0")
	}
}

func TestRandInt63nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) did not panic")
		}
	}()
	NewRand(1).Int63n(0)
}

func TestRandShuffle(t *testing.T) {
	r := NewRand(5)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), vals...)
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make(map[int]bool)
	same := true
	for i, v := range vals {
		if seen[v] {
			t.Fatalf("shuffle duplicated %d", v)
		}
		seen[v] = true
		if v != orig[i] {
			same = false
		}
	}
	if same {
		t.Error("shuffle left the slice untouched (suspicious for 8 elements)")
	}
}

func TestKilledErrorMessage(t *testing.T) {
	var ke killedError
	if ke.Error() == "" {
		t.Error("empty killed error message")
	}
}
