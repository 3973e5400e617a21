package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
)

// The pinned profile. Every server workload runs against this one
// configuration, so a knob that helps one traffic shape and hurts
// another shows; these are literals, not flags, for the same reason.
const (
	nShards        = 2
	nConns         = 2 // at most nproc on the authoring machine
	maxInflight    = 32
	writebackDepth = 64
	cacheMB        = 6.4
	readAheadDepth = 4
	closedWindow   = 16   // outstanding requests per connection, closed loop
	openWindow     = 8192 // open loop: deep enough never to throttle a healthy run
	warmup         = 2 * time.Second
	// openStoreLat is what a call into open_zipf's store costs its one disk
	// arm (store.go, seek).
	openStoreLat = time.Millisecond
)

// openRungs are open_zipf's offered rates in requests per second over
// both connections: about 25, 50 and 75 % of this profile's closed-loop
// capacity on the authoring machine (README, "How the rung rates were
// chosen"), frozen so that every later run is offered the same load.
var openRungs = []float64{840, 1700, 2500}

// cacheBlocks is the cache size in blocks.
var cacheBlocks = int(core.MB(cacheMB) / blockBytes)

func pinnedKernel() core.LiveConfig {
	return core.LiveConfig{
		CacheBytes:     core.MB(cacheMB),
		Alloc:          cache.LRUSP,
		ReadAhead:      true,
		ReadAheadDepth: readAheadDepth,
		WallClock:      true,
	}
}

func pinnedProfile() profile {
	return profile{
		Shards: nShards, MaxInflight: maxInflight, WritebackDepth: writebackDepth,
		CacheMB: cacheMB, Alloc: string(cache.LRUSP), ReadAheadDepth: readAheadDepth, WallClock: true,
		Connections: nConns, Window: closedWindow,
		RungRates: openRungs, StoreLatencyUs: int(openStoreLat / time.Microsecond),
	}
}

type storeKind int

const (
	storeMem     storeKind = iota // MemStore, no latency
	storeMemSlow                  // MemStore behind the wrapper's arm: openStoreLat per call once populated
	storeFile                     // FileStore in a temporary directory
)

// harness is one running server with its store wrapper and the load
// generator's connections to it.
type harness struct {
	srv    *server.Server
	store  *timedStore
	file   *disk.FileStore // the store, when it is a FileStore
	dir    string          // the FileStore's directory
	conns  []*wconn
	served chan error // Serve's result, once ln is set
	ln     net.Listener
}

// startHarness starts the pinned server over a fresh store of the given
// kind, listening on a loopback TCP port, and dials the connections.
func startHarness(kind storeKind, depth int, epoch time.Time, outDir string) (*harness, error) {
	h := &harness{served: make(chan error, 1)}
	var inner batchStore
	if kind == storeFile {
		dir, err := os.MkdirTemp(outDir, "store-")
		if err != nil {
			return nil, err
		}
		fst, err := disk.NewFileStore(filepath.Join(dir, "blocks"))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		h.dir, h.file, inner = dir, fst, fst
	} else {
		inner = disk.NewMemStore()
	}
	h.store = newTimedStore(inner, epoch)
	kern := pinnedKernel()
	kern.Store = h.store
	h.srv = server.New(server.Config{
		Kernel:         kern,
		Shards:         nShards,
		MaxInflight:    maxInflight,
		WritebackDepth: writebackDepth,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.stop()
		return nil, err
	}
	h.ln = ln
	go func() { h.served <- h.srv.Serve(ln) }()
	for i := 0; i < nConns; i++ {
		c, err := dialConn(i, ln.Addr().String(), depth, epoch)
		if err != nil {
			h.stop()
			return nil, err
		}
		h.conns = append(h.conns, c)
	}
	return h, nil
}

func (h *harness) sinks() []sink {
	ss := make([]sink, len(h.conns))
	for i, c := range h.conns {
		ss[i] = c
	}
	return ss
}

// stop closes the connections, drains and closes the server and removes
// the store's directory; every goroutine the harness started has exited
// when it returns.
func (h *harness) stop() error {
	for _, c := range h.conns {
		c.close()
	}
	// Closing flushes every dirty block; nobody is timing the store now.
	h.store.setLatency(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if h.ln != nil {
		if serr := <-h.served; err == nil {
			err = serr
		}
	}
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	if h.dir != "" {
		if rerr := os.RemoveAll(h.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// snapshot is everything read at a window's edge; a window's share of a
// counter is the difference of two.
type snapshot struct {
	at     time.Time
	server server.Metrics
	cpu    time.Duration // process user+system time
	mem    runtime.MemStats
	store  storeCounts
	// FileStore calls by shape: scalar reads, vector reads, scalar
	// writes, vector writes.
	io [4]int64
}

func (h *harness) snap() (snapshot, error) {
	var s snapshot
	m, ok := h.srv.Metrics()
	if !ok {
		return s, fmt.Errorf("benchmark: server metrics unavailable: server is shutting down")
	}
	s.server = m
	s.store = h.store.snapshot()
	if h.file != nil {
		s.io[0], s.io[1], s.io[2], s.io[3] = h.file.IOCounts()
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuTime()
	s.at = time.Now()
	return s, nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// liveRSSMB is the process's resident set in MB once garbage has been
// collected and freed pages returned: what the program holds on to. The
// peak would be steadier to read (one system call) but is not steadier
// to compare: it moves with the garbage collector's timing by a fifth
// from run to run.
func liveRSSMB() float64 {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}
