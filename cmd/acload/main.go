// Command acload replays the paper's workloads against a running acfcd
// server and reports what the wire saw: throughput, latency percentiles,
// hit ratios, and how many requests the server refused (drain) versus
// failed.
//
// The replay transcript comes from the DES: acload records the workload
// once in simulation (expt.Record) — every block access and every
// fbehavior call, in issue order — then N concurrent clients each replay
// that transcript through their own session and their own copy of the
// files (names are prefixed per client).
//
// A refusal mid-pipeline does not kill a replayer: the event is counted
// refused exactly once, the session reconnects (re-opening its files and
// re-enabling control) and retries the event once. A retry that is
// refused again means the server is draining for real; the replayer
// stops without recounting, so refusal totals count refused events, not
// refused wire frames.
//
// Usage:
//
//	acload [-addr unix:/tmp/acfcd.sock] [-app cs1] [-mode smart]
//	       [-clients 4] [-nodata]
//
// acload measures one replay against whatever server is at -addr; the
// repository's performance numbers come from `go run ./benchmark`, which
// pins the server profile and records the environment. A bad flag value
// exits 2 before anything is recorded.
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

	"repro/internal/expt"
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
}

// options holds the parsed flag values.
type options struct {
	addr, app, mode string
	clients         int
	nodata          bool
}

// newFlags registers every acload flag; the flag/documentation test
// walks the returned set.
func newFlags() (*flag.FlagSet, *options) {
	o := new(options)
	fl := flag.NewFlagSet("acload", flag.ExitOnError)
	fl.StringVar(&o.addr, "addr", "unix:/tmp/acfcd.sock", "server address: unix:/path or tcp:host:port")
	fl.StringVar(&o.app, "app", "cs1", "workload to replay (an expt.Registry name)")
	fl.StringVar(&o.mode, "mode", "smart", "oblivious, smart or foolish")
	fl.IntVar(&o.clients, "clients", 4, "concurrent client sessions")
	fl.BoolVar(&o.nodata, "nodata", false, "suppress block bytes in read responses")
	return fl, o
}

func run() int {
	fl, o := newFlags()
	fl.Parse(os.Args[1:])
	app, err := o.check()
	if err != nil {
		fmt.Fprintf(os.Stderr, "acload: %v\n", err)
		return 2
	}
	network, addr, _ := strings.Cut(o.addr, ":")

	fmt.Fprintf(os.Stderr, "acload: recording %s (%s) in simulation...\n", o.app, app.Mode)
	// A workload's transcript is the same on every machine
	// (expt.TestTranscriptIsTheWorkload), so the zero spec records it.
	rec := expt.Record(expt.RunSpec{Apps: []expt.AppSpec{app}})
	fmt.Fprintf(os.Stderr, "acload: %d events per client\n", len(rec.Events))

	res, err := runSweep(network, addr, "", o.clients, rec.Events, o.nodata)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acload: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"acload: server %2d clients: %7d reqs in %6.2fs = %8.0f req/s, %6.1f MB/s, %5.1f allocs/op, hit %5.1f%%, p50 %5.0fµs p90 %5.0fµs p99 %6.0fµs, refused %d, errors %d\n",
		res.Clients, res.Requests, res.Seconds, res.Throughput, res.BytesPerSec/1e6, res.AllocsPerOp, 100*res.HitRatio, res.P50us, res.P90us, res.P99us, res.Refused, res.Errors)
	return 0
}

// check rejects every flag value acload would otherwise measure nothing
// with, or fail on only after the recording, and returns the parsed
// application. It records and dials nothing.
func (o *options) check() (expt.AppSpec, error) {
	if o.clients <= 0 {
		return expt.AppSpec{}, fmt.Errorf("-clients must be positive (got %d)", o.clients)
	}
	app, err := expt.ParseApp(o.app + ":" + o.mode)
	if err != nil {
		return expt.AppSpec{}, err
	}
	if network, _, ok := strings.Cut(o.addr, ":"); !ok || (network != "unix" && network != "tcp") {
		return expt.AppSpec{}, fmt.Errorf("bad -addr %q (want unix:/path or tcp:host:port)", o.addr)
	}
	return app, nil
}

// runSweep replays the transcript through n concurrent sessions, each
// against its own file namespace (tag distinguishes sweeps sharing one
// server), and aggregates the measurements.
func runSweep(network, addr, tag string, n int, events []expt.ReplayEvent, nodata bool) (sweepResult, error) {
	type clientOut struct {
		st  replayStats
		err error
	}
	dial := func() (replayConn, error) {
		c, err := client.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	outs := make([]clientOut, n)
	var wg sync.WaitGroup
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prefix := fmt.Sprintf("%sc%d/", tag, i)
			outs[i].st, outs[i].err = replayOne(dial, prefix, events, nodata)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	res := sweepResult{Clients: n, Seconds: elapsed.Seconds()}
	var hits, accesses, bytes int64
	var all []time.Duration
	for i := range outs {
		if outs[i].err != nil {
			return res, fmt.Errorf("client %d: %w", i, outs[i].err)
		}
		st := &outs[i].st
		res.Requests += st.requests
		res.Refused += st.refused
		res.Errors += st.errors
		hits += st.hits
		accesses += st.hits + st.misses
		bytes += st.bytes
		all = append(all, st.latencies...)
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
}

// replayConn is what a replayer drives: the client's Session surface. A
// stub implementation backs the refused-accounting tests.
type replayConn = client.Session

// replayer replays one transcript through one session — client.Replay
// does the translation — counting and timing each event, and
// reconnecting and retrying once when the server refuses an event
// mid-pipeline. The reconnect policy (backoff, session-state restore) is
// the shared client.Redialer; Replay.Restore is its OnConnect hook.
type replayer struct {
	rd *client.Redialer[replayConn]
	rp client.Replay
	st replayStats
}

// errReplayDrained marks a replayer that stopped cleanly because the
// server kept refusing (shutdown drain): what it measured stands, the
// remaining events are simply not issued.
var errReplayDrained = errors.New("acload: server draining; replay stopped")

// replayOne replays the whole transcript through one fresh session.
// Recorded file ids map to server files created under prefix; fbehavior
// and access events reproduce the workload call for call.
func replayOne(dial func() (replayConn, error), prefix string, events []expt.ReplayEvent, nodata bool) (replayStats, error) {
	r := &replayer{rp: client.Replay{Prefix: prefix, NoData: nodata}}
	r.rd = &client.Redialer[replayConn]{Dial: dial, OnConnect: r.rp.Restore}
	if _, err := r.rd.Get(); err != nil {
		return r.st, err
	}
	defer func() { r.rd.Close() }()
	r.st.latencies = make([]time.Duration, 0, len(events))

	for _, ev := range events {
		if err := r.step(ev); err != nil {
			if errors.Is(err, errReplayDrained) {
				return r.st, nil
			}
			return r.st, err
		}
	}
	return r.st, nil
}

// step issues one event, counting it as exactly one request. A refusal
// counts refused once, reconnects — the redialer's OnConnect hook
// rebuilds the replay's server state on the fresh session — and retries
// the same event once; the retry never recounts the event, whatever its
// outcome. A second refusal, or nothing to reconnect to, means the server
// is draining for real: the replay ends cleanly.
func (r *replayer) step(ev expt.ReplayEvent) error {
	r.st.requests++
	for retry := false; ; retry = true {
		hit, err := r.apply(ev)
		switch {
		case err == nil:
			if hit {
				r.st.hits++
			} else if !ev.IsCtl {
				r.st.misses++
			}
			return nil
		case !errors.Is(err, client.ErrRefused) && !errors.Is(err, client.ErrRevoked):
			r.st.errors++
			return err
		case retry:
			return errReplayDrained
		}
		r.st.refused++
		r.rd.Invalidate(r.rp.S)
		if _, err := r.rd.Get(); err != nil {
			return errReplayDrained
		}
	}
}

// apply issues one event on the current session. For access events it
// also records the wire latency and the payload bytes moved.
func (r *replayer) apply(ev expt.ReplayEvent) (hit bool, err error) {
	if ev.IsCtl {
		return false, r.rp.Ctl(*ev.Ctl.CtlEvent)
	}
	t0 := time.Now()
	hit, err = r.rp.Access(ev.Access)
	r.st.latencies = append(r.st.latencies, time.Since(t0))
	if ev.Access.Write || !r.rp.NoData {
		r.st.bytes += int64(ev.Access.Size)
	}
	return hit, err
}
