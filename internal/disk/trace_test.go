package disk

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// updateTraces rewrites testdata/trace_*.txt from the disk in this
// checkout. The committed files were recorded with it at the commit before
// the drive became a callback state machine, when each drive was a server
// process; they are the old server's behaviour kept as data.
var updateTraces = flag.Bool("update-traces", false, "rewrite internal/disk/testdata/trace_*.txt")

// scriptTrace runs a fixed script against two drives on one bus and
// returns one line per completed request, in completion order: drive, op,
// address, completion time in microseconds. The script mixes what the
// simulated kernel does to a drive: two processes reading synchronously
// (demand misses), bursts of asynchronous writes queued at one instant
// (the update daemon), a write chained from a completion callback, a
// sequential run (read-ahead streaming), a process that starts late and
// queues at the same instant as another, and pauses long enough for a
// drive to go idle and be woken again.
func scriptTrace(sched Sched, opts ...sim.Option) []string {
	var out []string
	eng := sim.New(opts...)
	bus := NewBus(eng)
	drives := []*Disk{New(eng, RZ56, bus, 11), New(eng, RZ26, bus, 23)}
	for _, d := range drives {
		d.SetScheduler(sched)
	}
	record := func(d *Disk, op Op, addr int, t sim.Time) {
		out = append(out, fmt.Sprintf("%s %s %d %d", d.Geometry().Name, op, addr, int64(t)))
	}
	write := func(d *Disk, addr int) {
		d.Start(Write, addr, func(t sim.Time) { record(d, Write, addr, t) })
	}
	read := func(p *sim.Proc, d *Disk, addr int) {
		record(d, Read, addr, d.Access(p, Read, addr))
	}

	// A reader per drive, each with its own address stream; reader 0 also
	// crosses to the other drive so the two contend for one queue.
	for i, d := range drives {
		i, d := i, d
		r := sim.NewRand(uint64(101 + i))
		eng.Spawn(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			for n := 0; n < 30; n++ {
				read(p, d, r.Intn(d.Geometry().Blocks()))
				switch {
				case n%10 == 3: // a sequential run behind a random block
					base := r.Intn(d.Geometry().Blocks() - 8)
					for k := 0; k < 6; k++ {
						read(p, d, base+k)
					}
				case n%7 == 5 && i == 0:
					other := drives[1]
					read(p, other, r.Intn(other.Geometry().Blocks()))
				case n%4 == 1:
					p.Sleep(sim.Time(r.Intn(40)) * sim.Millisecond)
				}
			}
		})
	}

	// The flusher: every 150 ms a burst of writes queued at one instant,
	// split over both drives, with duplicates of one address; every third
	// burst chains one more write from a completion callback.
	eng.Spawn("flusher", func(p *sim.Proc) {
		r := sim.NewRand(7)
		for burst := 0; burst < 8; burst++ {
			p.Sleep(150 * sim.Millisecond)
			for k := 0; k < 8; k++ {
				d := drives[k%2]
				addr := r.Intn(d.Geometry().Blocks())
				if k == 6 {
					addr = 4242 // the same block twice in one burst
					write(d, addr)
				}
				if k == 7 && burst%3 == 0 {
					next := r.Intn(d.Geometry().Blocks())
					d.Start(Write, addr, func(t sim.Time) {
						record(d, Write, addr, t)
						write(d, next)
					})
					continue
				}
				write(d, addr)
			}
		}
	})

	// A late starter whose first requests land on the instant of the
	// flusher's second burst, after a reader has parked on the same drive.
	eng.SpawnAt("late", 300*sim.Millisecond, func(p *sim.Proc) {
		r := sim.NewRand(55)
		d := drives[0]
		write(d, 9000)
		write(d, 100)
		for n := 0; n < 12; n++ {
			read(p, d, r.Intn(d.Geometry().Blocks()))
			if n%5 == 4 {
				p.Sleep(2 * sim.Second) // both drives drain and go idle
				write(drives[1], r.Intn(drives[1].Geometry().Blocks()))
			}
		}
	})
	eng.Run()
	out = append(out, fmt.Sprintf("end %d", int64(eng.Now())))
	return out
}

// TestScriptTraceMatchesServerProcess requires the drive to complete the
// script's ~200 requests in the order and at the times the old server
// process did, under both scheduling disciplines, with the engine's
// inline dispatch and with everything forced through the heap.
func TestScriptTraceMatchesServerProcess(t *testing.T) {
	for _, sched := range []Sched{CLOOK, FIFO} {
		path := filepath.Join("testdata", "trace_"+sched.String()+".txt")
		got := scriptTrace(sched)
		if *updateTraces {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(want) < 180 {
			t.Fatalf("%s: only %d lines recorded", path, len(want))
		}
		for name, trace := range map[string][]string{
			"default":         got,
			"DisableFastPath": scriptTrace(sched, sim.DisableFastPath),
		} {
			if len(trace) != len(want) {
				t.Errorf("%s %s: %d completions, recorded %d", sched, name, len(trace), len(want))
			}
			for i := range trace {
				if i < len(want) && trace[i] != want[i] {
					t.Errorf("%s %s: completion %d is %q, recorded %q", sched, name, i, trace[i], want[i])
					break
				}
			}
		}
	}
}
