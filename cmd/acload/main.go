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
//	       [-clients 4] [-cache-mb 6.4] [-alloc lru-sp] [-nodata]
//
// acload measures one replay against whatever server is at -addr; the
// repository's performance numbers come from `go run ./benchmark`, which
// pins the server profile and records the environment.
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
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fs"
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
	addr, app, mode, alloc string
	clients                int
	cacheMB                float64
	nodata                 bool
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
	fl.Float64Var(&o.cacheMB, "cache-mb", 6.4, "cache size of the simulation that records the transcript")
	fl.StringVar(&o.alloc, "alloc", "lru-sp", "allocation policy of the simulation that records the transcript")
	fl.BoolVar(&o.nodata, "nodata", false, "suppress block bytes in read responses")
	return fl, o
}

func run() int {
	fl, o := newFlags()
	fl.Parse(os.Args[1:])

	alloc, err := cache.ParseAlloc(o.alloc)
	var app expt.AppSpec
	if err == nil {
		app, err = expt.ParseApp(o.app + ":" + o.mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "acload: %v\n", err)
		return 2
	}
	network, addr, ok := strings.Cut(o.addr, ":")
	if !ok || (network != "unix" && network != "tcp") {
		fmt.Fprintf(os.Stderr, "acload: bad -addr %q\n", o.addr)
		return 2
	}

	fmt.Fprintf(os.Stderr, "acload: recording %s (%s) in simulation...\n", o.app, app.Mode)
	rec := expt.Record(expt.RunSpec{
		Apps:    []expt.AppSpec{app},
		CacheMB: o.cacheMB,
		Alloc:   alloc,
		// Read-ahead I/O is untraced, so the transcript must not depend on it.
		Opts: expt.Options{ReadAheadOff: true},
	})
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

// replayConn is the slice of the client API a replayer drives; a stub
// implementation backs the refused-accounting tests.
type replayConn interface {
	Open(name string) (client.File, error)
	Create(name string, d, sizeBlocks int) (client.File, error)
	Remove(name string) error
	Control(enable bool) error
	Fbehavior(op client.FbOp, a client.FbArgs) (client.FbResult, error)
	ReadInto(f fs.FileID, blk int32, off, size int, dst []byte) (bool, error)
	ReadNoData(f fs.FileID, blk int32, off, size int) (bool, error)
	Write(f fs.FileID, blk int32, off int, payload []byte) (bool, error)
	Close() error
}

// replayer replays one transcript through one session, reconnecting and
// retrying once when the server refuses an event mid-pipeline. The
// reconnect policy (backoff, session-state restore) is the shared
// client.Redialer; restore is its OnConnect hook.
type replayer struct {
	rd     *client.Redialer[replayConn]
	prefix string
	nodata bool

	c          replayConn
	files      map[fs.FileID]fs.FileID // recorded id -> server id
	names      map[fs.FileID]string    // recorded id -> server name, for re-open
	controlled bool
	buf        []byte // reused read destination (client-side zero-alloc)
	st         replayStats
}

// errReplayDrained marks a replayer that stopped cleanly because the
// server kept refusing (shutdown drain): what it measured stands, the
// remaining events are simply not issued.
var errReplayDrained = errors.New("acload: server draining; replay stopped")

// replayOne replays the whole transcript through one fresh session.
// Recorded file ids map to server files created under prefix; fbehavior
// and access events reproduce the workload call for call.
func replayOne(dial func() (replayConn, error), prefix string, events []expt.ReplayEvent, nodata bool) (replayStats, error) {
	r := &replayer{
		prefix: prefix,
		nodata: nodata,
		files:  make(map[fs.FileID]fs.FileID),
		names:  make(map[fs.FileID]string),
		buf:    make([]byte, core.BlockSize),
	}
	r.rd = &client.Redialer[replayConn]{Dial: dial, OnConnect: r.restore}
	c, err := r.rd.Get()
	if err != nil {
		return r.st, err
	}
	r.c = c
	defer func() { r.rd.Close() }()

	payload := make([]byte, core.BlockSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	r.st.latencies = make([]time.Duration, 0, len(events))

	for _, ev := range events {
		if err := r.step(ev, payload); err != nil {
			if errors.Is(err, errReplayDrained) {
				return r.st, nil
			}
			return r.st, err
		}
	}
	return r.st, nil
}

// step issues one event, counting it as exactly one request. A refusal
// counts refused once, reconnects and retries the same event once; the
// retry never recounts the event, whatever its outcome.
func (r *replayer) step(ev expt.ReplayEvent, payload []byte) error {
	r.st.requests++
	hit, isAccess, err := r.apply(ev, payload)
	if err == nil {
		if isAccess {
			if hit {
				r.st.hits++
			} else {
				r.st.misses++
			}
		}
		return nil
	}
	if !errors.Is(err, client.ErrRefused) && !errors.Is(err, client.ErrRevoked) {
		r.st.errors++
		return err
	}
	r.st.refused++
	if rerr := r.reconnect(); rerr != nil {
		// Nothing to reconnect to: the server is gone. The refusal stays
		// counted once and the replay ends cleanly.
		return errReplayDrained
	}
	hit, isAccess, err = r.apply(ev, payload)
	if err != nil {
		if errors.Is(err, client.ErrRefused) || errors.Is(err, client.ErrRevoked) {
			return errReplayDrained
		}
		r.st.errors++
		return err
	}
	if isAccess {
		if hit {
			r.st.hits++
		} else {
			r.st.misses++
		}
	}
	return nil
}

// reconnect discards the dead session and dials a fresh one through the
// redialer, whose OnConnect hook (restore) rebuilds the replayer's
// server state before the connection is handed back.
func (r *replayer) reconnect() error {
	r.rd.Invalidate(r.c)
	c, err := r.rd.Get()
	if err != nil {
		return err
	}
	r.c = c
	return nil
}

// restore rebuilds session state on a fresh connection: control
// re-enabled if it was on, every live file re-opened so the recorded
// ids resolve again. (Priorities are per-owner manager state; the
// replay reissues them only as the transcript reaches them, like the
// restarted real application would.)
func (r *replayer) restore(c replayConn) error {
	if r.controlled {
		if err := c.Control(true); err != nil {
			return err
		}
	}
	for rid, name := range r.names {
		f, err := c.Open(name)
		if err != nil {
			return err
		}
		r.files[rid] = f.ID
	}
	return nil
}

// apply issues one event on the current session and updates the file
// maps on success. For access events it also records the wire latency.
func (r *replayer) apply(ev expt.ReplayEvent, payload []byte) (hit, isAccess bool, err error) {
	if ev.IsCtl {
		ct := ev.Ctl
		switch ct.Op {
		case core.CtlCreateFile:
			name := r.prefix + ct.FileName
			var f client.File
			f, err = r.c.Create(name, ct.Disk, ct.Size)
			if err == nil {
				r.files[ct.File] = f.ID
				r.names[ct.File] = name
			}
		case core.CtlRemoveFile:
			err = r.c.Remove(r.prefix + ct.FileName)
			if err == nil {
				delete(r.files, ct.File)
				delete(r.names, ct.File)
			}
		case core.CtlControl:
			err = r.c.Control(ct.Enable)
			if err == nil {
				r.controlled = ct.Enable
			}
		case core.CtlSetPriority:
			_, err = r.c.Fbehavior(client.FbSetPriority, client.FbArgs{File: r.files[ct.File], Prio: ct.Prio})
		case core.CtlSetPolicy:
			_, err = r.c.Fbehavior(client.FbSetPolicy, client.FbArgs{Prio: ct.Prio, Policy: ct.Policy})
		case core.CtlSetTempPri:
			_, err = r.c.Fbehavior(client.FbSetTempPri, client.FbArgs{File: r.files[ct.File], Start: ct.Start, End: ct.End, Prio: ct.Prio})
		}
		return false, false, err
	}

	a := ev.Access
	fid, ok := r.files[a.File]
	if !ok {
		return false, false, fmt.Errorf("access to file %d before its create event", a.File)
	}
	t0 := time.Now()
	if a.Write {
		hit, err = r.c.Write(fid, a.Block, a.Off, payload[:a.Size])
		r.st.bytes += int64(a.Size)
	} else if r.nodata {
		hit, err = r.c.ReadNoData(fid, a.Block, a.Off, a.Size)
	} else {
		hit, err = r.c.ReadInto(fid, a.Block, a.Off, a.Size, r.buf)
		r.st.bytes += int64(a.Size)
	}
	r.st.latencies = append(r.st.latencies, time.Since(t0))
	return hit, true, err
}
