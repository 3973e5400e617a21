package sim

import "testing"

// BenchmarkSleepFastPath measures the lookahead fast path: a lone
// process advancing virtual time inline (no heap push, no goroutine
// handoff).
func BenchmarkSleepFastPath(b *testing.B) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleepParked measures the slow path the fast path avoids: the
// same lone sleeper forced through a heap push plus a park/resume round
// trip — a coroutine switch to the engine and one back (the engine's
// pre-lookahead fundamental cost, formerly BenchmarkHandoff).
func BenchmarkSleepParked(b *testing.B) {
	e := New(DisableFastPath)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkCallbackEvent measures an event without a process: one At plus
// its dispatch by the process sleeping across it — a heap push, a pop and
// an indirect call, no switch. Compare with BenchmarkSleepParked, which is
// what the same event cost when it had to be a process's wake-up.
func BenchmarkCallbackEvent(b *testing.B) {
	e := New()
	fired := 0
	fn := func() { fired++ }
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.At(p.Now()+1, fn)
			p.Sleep(2)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if fired != b.N || e.Stats().Handoffs != 1 {
		b.Fatalf("%d callbacks fired of %d, %d handoffs", fired, b.N, e.Stats().Handoffs)
	}
}

// BenchmarkTwoProcInterleave measures alternating wake-ups of two
// processes — the common multi-application pattern. Each sleep lands
// exactly on the other process's pending wake-up, so the fast path never
// fires and every step is a real handoff.
func BenchmarkTwoProcInterleave(b *testing.B) {
	e := New()
	for pi := 0; pi < 2; pi++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkPingPong measures a hand-off between two processes: a token
// passed over and back through two conditions, one round per iteration. Each
// resume is two coroutine switches, one in and one out; switches/round says
// how many a round took (two while the root resumes its peer from its own
// wait, four when both ends went through Run).
func BenchmarkPingPong(b *testing.B) {
	e := New()
	pingPong(e, b.N, func(round func()) {
		for i := 0; i < b.N; i++ {
			round()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.ReportMetric(2*float64(e.Stats().Handoffs)/float64(b.N), "switches/round")
}

// BenchmarkResourceReserve measures the FCFS resource fast path.
func BenchmarkResourceReserve(b *testing.B) {
	e := New()
	r := e.NewResource("r")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reserve(1)
	}
}

// BenchmarkRand measures the PRNG.
func BenchmarkRand(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
