// Command acload replays the paper's workloads against a running acfcd
// server and reports what the wire saw: throughput, latency percentiles,
// hit ratios, and how many requests the server refused (drain) versus
// failed.
//
// acload records the mix once in simulation (expt.Record) on acfcd's
// default profile: 6.4 MB, lru-sp, revocation on, read-ahead off. Each
// of N concurrent copies then replays the transcript through one
// session per recorded process (client.Replay), over its own copy of
// the files (names are prefixed per copy). A refused event (the server
// is draining) counts refused once and ends its copy. At the end acload
// prints, per recorded process, the server's hits, misses and manager
// record for its sessions, summed over the copies, beside the
// simulation's; against a default, one-shard acfcd at -clients 1 they
// agree.
//
// Usage:
//
//	acload [-addr unix:/tmp/acfcd.sock] [-apps gli:smart,read300:foolish]
//	       [-clients 4] [-nodata]
//
// -apps takes acsim's name[:mode] list, each name at most once. The
// repository's performance numbers come from `go run ./benchmark`,
// which pins the server profile and records the environment. A bad flag
// value exits 2 before anything is recorded.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/expt"
	"repro/internal/server"
	"repro/internal/server/client"
)

func main() {
	os.Exit(run())
}

// sweepResult is one replay's measurement.
type sweepResult struct {
	Clients    int
	Requests   int64
	Refused    int64
	Errors     int64
	Accesses   int64 // block reads and writes answered: hits + misses
	Seconds    float64
	Throughput float64 // requests per second
	// BytesPerSec is payload bandwidth: block bytes actually moved over
	// the wire (read responses unless -nodata, write request payloads),
	// headers excluded.
	BytesPerSec float64
	// AllocsPerOp is this client process's heap allocations per request
	// over the replay (runtime Mallocs delta / requests).
	AllocsPerOp float64
	HitRatio    float64
	P50us       float64
	P90us       float64
	P99us       float64
	// Procs is each recorded process's sessions, summed over the copies
	// that finished; Revoked if any copy's session was.
	Procs []procResult
}

type procResult struct {
	Hits, Misses int64
	Control      cache.OwnerStats
}

// options holds the parsed flag values.
type options struct {
	addr, apps string
	clients    int
	nodata     bool
}

// newFlags registers every acload flag; the flag/documentation test
// walks the returned set.
func newFlags() (*flag.FlagSet, *options) {
	o := new(options)
	fl := flag.NewFlagSet("acload", flag.ExitOnError)
	fl.StringVar(&o.addr, "addr", "unix:/tmp/acfcd.sock", "server address: unix:/path or tcp:host:port")
	fl.StringVar(&o.apps, "apps", "cs1", "comma-separated name[:mode] specs, as acsim's")
	fl.IntVar(&o.clients, "clients", 4, "concurrent copies of the mix")
	fl.BoolVar(&o.nodata, "nodata", false, "suppress block bytes in read responses")
	return fl, o
}

func run() int {
	fl, o := newFlags()
	fl.Parse(os.Args[1:])
	apps, err := o.check()
	if err != nil {
		fmt.Fprintf(os.Stderr, "acload: %v\n", err)
		return 2
	}
	network, addr, _ := strings.Cut(o.addr, ":")

	fmt.Fprintf(os.Stderr, "acload: recording %s in simulation...\n", o.apps)
	rec := expt.Record(recordSpec(apps))
	fmt.Fprintf(os.Stderr, "acload: %d events per copy\n", len(rec.Events))

	res, err := runSweep(network, addr, "", o.clients, rec, o.nodata)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acload: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"acload: server %2d clients: %7d reqs in %6.2fs = %8.0f req/s, %6.1f MB/s, %5.1f allocs/op, hit %5.1f%%, p50 %5.0fµs p90 %5.0fµs p99 %6.0fµs, refused %d, errors %d\n",
		res.Clients, res.Requests, res.Seconds, res.Throughput, res.BytesPerSec/1e6, res.AllocsPerOp, 100*res.HitRatio, res.P50us, res.P90us, res.P99us, res.Refused, res.Errors)
	for p, pr := range res.Procs {
		sim := rec.Result.PerApp[p]
		fmt.Fprintf(os.Stderr,
			"acload: %-8s %-9s server %7d hits %7d misses, %5d decisions %5d mistakes revoked %-5t | simulation %7d misses, %5d decisions %5d mistakes revoked %t\n",
			sim.Name, apps[p].Mode, pr.Hits, pr.Misses, pr.Control.Decisions, pr.Control.Mistakes, pr.Control.Revoked,
			sim.Stats.Misses, sim.Control.Decisions, sim.Control.Mistakes, sim.Control.Revoked)
	}
	return 0
}

// recordSpec records apps on acfcd's default profile: a mix's
// interleaving, and so each manager's decisions, is the machine's.
func recordSpec(apps []expt.AppSpec) expt.RunSpec {
	return expt.RunSpec{Apps: apps, Alloc: cache.LRUSP, Revoke: true, Opts: expt.Options{ReadAheadOff: true}}
}

// check rejects every flag value acload would otherwise measure nothing
// with, or fail on only after the recording, and returns the parsed
// applications. It records and dials nothing.
func (o *options) check() ([]expt.AppSpec, error) {
	if o.clients <= 0 {
		return nil, fmt.Errorf("-clients must be positive (got %d)", o.clients)
	}
	apps, err := expt.ParseApps(o.apps)
	if err != nil {
		return nil, fmt.Errorf("-apps: %v", err)
	}
	if network, _, ok := strings.Cut(o.addr, ":"); !ok || (network != "unix" && network != "tcp") {
		return nil, fmt.Errorf("bad -addr %q (want unix:/path or tcp:host:port)", o.addr)
	}
	return apps, nil
}

// runSweep replays the recording through n concurrent copies of its
// mix, each against its own file namespace (tag distinguishes sweeps
// sharing one server), and aggregates the measurements.
func runSweep(network, addr, tag string, n int, rec *expt.Recording, nodata bool) (sweepResult, error) {
	dial := func() (conn, error) { return client.Dial(network, addr) }
	sts, errs := make([]replayStats, n), make([]error, n)
	var wg sync.WaitGroup
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prefix := fmt.Sprintf("%sc%d/", tag, i)
			sts[i], errs[i] = replayOne(dial, len(rec.Spec.Apps), prefix, rec.Events, nodata)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	res := sweepResult{Clients: n, Seconds: elapsed.Seconds(), Procs: make([]procResult, len(rec.Spec.Apps))}
	var hits, accesses, bytes int64
	var all []time.Duration
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("client %d: %w", i, err)
		}
		st := &sts[i]
		res.Requests += st.requests
		res.Refused += st.refused
		res.Errors += st.errors
		hits += st.hits
		accesses += st.hits + st.misses
		bytes += st.bytes
		all = append(all, st.latencies...)
		for p, sr := range st.server {
			pr := &res.Procs[p]
			pr.Hits += sr.Session.Hits
			pr.Misses += sr.Session.Misses
			pr.Control.Decisions += sr.Control.Decisions
			pr.Control.Mistakes += sr.Control.Mistakes
			pr.Control.Revoked = pr.Control.Revoked || sr.Control.Revoked
		}
	}
	if res.Seconds > 0 {
		res.Throughput = float64(res.Requests) / res.Seconds
		res.BytesPerSec = float64(bytes) / res.Seconds
	}
	if res.Requests > 0 {
		res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(res.Requests)
	}
	res.Accesses = accesses
	if accesses > 0 {
		res.HitRatio = float64(hits) / float64(accesses)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50us = percentileUs(all, 0.50)
	res.P90us = percentileUs(all, 0.90)
	res.P99us = percentileUs(all, 0.99)
	return res, nil
}

func percentileUs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Microsecond)
}

type replayStats struct {
	requests  int64
	hits      int64
	misses    int64
	refused   int64
	errors    int64
	bytes     int64 // payload bytes moved (read responses, write payloads)
	latencies []time.Duration
	server    []server.StatsReply // each process's, after the last event
}

// conn is a Session that answers the stats request: a *client.Conn, or
// the tests' stub.
type conn interface {
	client.Session
	Stats() (server.StatsReply, error)
}

// replayOne replays one copy of the mix through one session per
// recorded process, every file named under prefix, counting and timing
// each event as one request. A refusal ends the copy cleanly, any other
// failure with its error.
func replayOne(dial func() (conn, error), procs int, prefix string, events []expt.ReplayEvent, nodata bool) (replayStats, error) {
	var st replayStats
	conns := make([]conn, procs)
	for p := range conns {
		c, err := dial()
		if err != nil {
			return st, err
		}
		defer c.Close()
		conns[p] = c
	}
	rp := client.NewReplay(conns, events, prefix, nodata)
	st.latencies = make([]time.Duration, 0, len(events))
	for _, ev := range events {
		st.requests++
		t0 := time.Now()
		hit, err := rp.Step(ev)
		if !ev.IsCtl {
			st.latencies = append(st.latencies, time.Since(t0))
			if ev.Access.Write || !nodata {
				st.bytes += int64(ev.Access.Size)
			}
		}
		switch {
		case errors.Is(err, client.ErrRefused) || errors.Is(err, client.ErrRevoked):
			st.refused++
			return st, nil
		case err != nil:
			st.errors++
			return st, err
		case hit:
			st.hits++
		case !ev.IsCtl:
			st.misses++
		}
	}
	for _, c := range conns {
		sr, err := c.Stats()
		if err != nil {
			return st, err
		}
		st.server = append(st.server, sr)
	}
	return st, nil
}
