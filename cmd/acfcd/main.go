// Command acfcd is the application-controlled file cache daemon: the
// Live kernel — buffer cache, ACM, file namespace, block store — served
// to client processes over a unix or TCP socket, split into -shards
// independent replacement domains (files hash to shards at open time).
// Each connection is one owner/manager session; disconnecting releases
// the owner's blocks. A manager whose decisions placeholders keep proving
// wrong (more than 30 % of at least 200) loses control, as in the paper's
// footnote 7; there is no flag to turn this off. Revocation is judged per
// shard, and each session's decisions, mistakes and revocation show in
// its stats reply and on /metrics.
//
// Usage:
//
//	acfcd -listen unix:/tmp/acfcd.sock [-metrics 127.0.0.1:9090]
//	      [-pprof 127.0.0.1:6060]
//	      [-cache-mb 6.4] [-alloc lru-sp]
//	      [-store mem|/path/to/dir]
//	      [-shards 1] [-idle 2m] [-inflight 32]
//	      [-writeback-depth 0] [-readahead 0] [-grace 10s]
//	      [-cluster tcp:h1:p1,tcp:h2:p2,... -origin dir:/path]
//
// -store mem keeps blocks in memory; a path keeps each file's blocks in
// a file of its own (disk.FileStore) in a scratch directory made at
// start and removed at exit. A path that exists and is not an empty
// directory is refused, so a mistyped -store loses nothing.
//
// -alloc names any policy in the kernel's registry (cache.AllocNames:
// global-lru, lru-sp, lru-s, alloc-lru, arc, awrp). It is fixed for the
// daemon's life: every shard runs it, and the stats reply and /metrics
// name it.
//
// A bad flag value, -store or -origin without the mode it belongs to, or
// -cluster without an -origin dir: that names a path, exits 2 before any
// store, origin or listener is opened.
//
// With -cluster, the daemon joins a static multi-node tier: the member
// list (which must include this node's -listen spec) is hashed into a
// consistent-hash ring, files route to their owning node, and local
// misses read the shared -origin — a directory with one file per file
// name (disk.DirStore, the node's base store) that every node fills from
// and writes back to, so a block one node evicted dirty is there for
// the node that takes its files over. SIGINT/SIGTERM then run the
// planned-leave protocol: drain, flush dirty blocks to the origin, open
// every file on its new hash owner (see cluster.Node.Leave), exit.
//
// Without -cluster, SIGINT/SIGTERM drain gracefully: in-flight requests
// finish, new ones are refused, and the kernel flushes dirty blocks
// before exit. The single-node path is untouched by cluster mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: registers the /debug/pprof handlers
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/server/client"
)

func main() {
	os.Exit(run())
}

// options holds the parsed flag values.
type options struct {
	listen, metrics, pprof string
	cacheMB                float64
	alloc                  string
	store                  string
	idle, grace            time.Duration
	inflight, shards       int
	writebackDepth         int
	readahead              int
	cluster, origin        string
}

// newFlags registers every acfcd flag; the flag/documentation test walks
// the returned set.
func newFlags() (*flag.FlagSet, *options) {
	o := new(options)
	fl := flag.NewFlagSet("acfcd", flag.ExitOnError)
	fl.StringVar(&o.listen, "listen", "unix:/tmp/acfcd.sock", "listen address: unix:/path or tcp:host:port")
	fl.StringVar(&o.metrics, "metrics", "", "HTTP /metrics listen address (empty: disabled)")
	fl.StringVar(&o.pprof, "pprof", "", "HTTP net/http/pprof listen address (empty: disabled)")
	fl.Float64Var(&o.cacheMB, "cache-mb", 6.4, "cache size in MB")
	fl.StringVar(&o.alloc, "alloc", "lru-sp", fmt.Sprintf("allocation policy: %v", cache.AllocNames()))
	fl.StringVar(&o.store, "store", "mem", "block store: mem, or a scratch directory made at start and removed at exit")
	fl.DurationVar(&o.idle, "idle", 2*time.Minute, "session idle timeout")
	fl.IntVar(&o.inflight, "inflight", 32, "max pipelined requests per session")
	fl.IntVar(&o.shards, "shards", 1, "independent kernel shards (files hash to shards at open)")
	fl.DurationVar(&o.grace, "grace", 10*time.Second, "shutdown drain grace before forcing disconnects")
	fl.IntVar(&o.writebackDepth, "writeback-depth", 0, "write-behind per shard: dirty victims are gathered and written N at a time, at most 64 (0: synchronous write-backs)")
	fl.IntVar(&o.readahead, "readahead", 0, "server-side sequential read-ahead depth (0: disabled)")
	fl.StringVar(&o.cluster, "cluster", "", "comma-separated member list (incl. this node's -listen spec); empty: single-node mode")
	fl.StringVar(&o.origin, "origin", "", "cluster origin, required with -cluster: dir:/shared/path")
	return fl, o
}

func run() int {
	fl, o := newFlags()
	fl.Parse(os.Args[1:])
	if err := o.check(); err != nil {
		fmt.Fprintf(os.Stderr, "acfcd: %v\n", err)
		return 2
	}

	var store disk.Store
	if o.store != "mem" {
		fst, err := disk.NewFileStore(o.store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: store: %v\n", err)
			return 1
		}
		store = fst
	}

	scfg := server.Config{
		Kernel: core.LiveConfig{
			CacheBytes:     core.MB(o.cacheMB),
			Alloc:          cache.Alloc(o.alloc), // check parsed it
			Store:          store,
			ReadAhead:      o.readahead > 0,
			ReadAheadDepth: o.readahead,
			WallClock:      true,
		},
		Shards:         o.shards,
		WritebackDepth: o.writebackDepth,
		MaxInflight:    o.inflight,
		IdleTimeout:    o.idle,
	}

	// Cluster mode's base store is a DirStore over the shared -origin
	// directory; the single-node path below is byte-for-byte the
	// non-cluster daemon.
	var node *cluster.Node
	srv := (*server.Server)(nil)
	if o.cluster != "" {
		origin, err := disk.NewDirStore(strings.TrimPrefix(o.origin, "dir:"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: origin: %v\n", err)
			return 1
		}
		scfg.Kernel.Store = origin
		n, err := cluster.NewNode(cluster.NodeConfig{
			Self:    o.listen,
			Members: strings.Split(o.cluster, ","),
			Server:  scfg,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: %v\n", err)
			return 1
		}
		node = n
		srv = n.Srv
	} else {
		srv = server.New(scfg)
	}

	ln, err := listen(o.listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acfcd: %v\n", err)
		return 1
	}
	backing := "store " + o.store
	if node != nil {
		backing = fmt.Sprintf("cluster of %d, origin %s", node.Ring().Len(), o.origin)
	}
	fmt.Fprintf(os.Stderr, "acfcd: serving on %s (%s, %.1f MB cache, %d shard(s), write-behind depth %d, read-ahead depth %d, %s)\n",
		ln.Addr(), o.alloc, o.cacheMB, srv.Shards(), o.writebackDepth, o.readahead, backing)

	if o.metrics != "" {
		mln, err := net.Listen("tcp", o.metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: metrics: %v\n", err)
			return 1
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		go http.Serve(mln, mux)
		fmt.Fprintf(os.Stderr, "acfcd: metrics on http://%s/metrics\n", mln.Addr())
	}

	if o.pprof != "" {
		pln, err := net.Listen("tcp", o.pprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: pprof: %v\n", err)
			return 1
		}
		// nil handler = http.DefaultServeMux, where the pprof import
		// registered /debug/pprof; kept off the -metrics mux so the
		// profiling port can stay loopback-only.
		go http.Serve(pln, nil)
		fmt.Fprintf(os.Stderr, "acfcd: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "acfcd: %v: draining (%v grace)\n", sig, o.grace)
	case err := <-errc:
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: serve: %v\n", err)
			return 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	if node != nil {
		// Planned leave: drain, flush dirty to the origin, hand every
		// file's name to its new hash owner, close the store.
		if err := node.Leave(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: leave: %v\n", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "acfcd: left the cluster, bye")
		return 0
	}
	farewell := "drained, bye"
	if err := srv.Shutdown(ctx); err != nil {
		// Shutdown's only error is ctx's: it stopped waiting and killed
		// whoever was still connected.
		farewell = "grace expired: remaining sessions disconnected"
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "acfcd: close: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "acfcd:", farewell)
	return 0
}

// check rejects every flag value acfcd would otherwise replace with a
// default, ignore, or act on only half way. It opens nothing.
func (o *options) check() error {
	if err := core.CheckCacheMB(o.cacheMB); err != nil {
		return fmt.Errorf("-cache-mb: %w", err)
	}
	switch {
	case o.inflight <= 0:
		return fmt.Errorf("-inflight must be positive (got %d)", o.inflight)
	case o.shards <= 0:
		return fmt.Errorf("-shards must be positive (got %d)", o.shards)
	case o.idle <= 0:
		return fmt.Errorf("-idle must be positive (got %v)", o.idle)
	case o.grace < 0:
		return fmt.Errorf("-grace must not be negative (got %v)", o.grace)
	case o.writebackDepth < 0:
		return fmt.Errorf("-writeback-depth must not be negative (got %d)", o.writebackDepth)
	case o.readahead < 0:
		return fmt.Errorf("-readahead must not be negative (got %d)", o.readahead)
	case o.cluster != "" && o.store != "mem":
		return fmt.Errorf("-store does not combine with -cluster (the shared -origin is the backing tier)")
	case o.cluster == "" && o.origin != "":
		return fmt.Errorf("-origin needs -cluster")
	case o.cluster != "" && (!strings.HasPrefix(o.origin, "dir:") || o.origin == "dir:"):
		return fmt.Errorf("-cluster needs -origin dir:/path, the directory every node writes back to (got %q)", o.origin)
	}
	if _, err := cache.ParseAlloc(o.alloc); err != nil {
		return err
	}
	if _, _, err := client.SplitAddr(o.listen); err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	return nil
}

// listen parses "unix:/path" or "tcp:addr" and listens. A stale unix
// socket from an unclean previous exit is removed first.
func listen(spec string) (net.Listener, error) {
	network, addr, err := client.SplitAddr(spec)
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		if _, err := os.Stat(addr); err == nil {
			if c, err := net.Dial("unix", addr); err == nil {
				c.Close()
				return nil, fmt.Errorf("%s: already in use", addr)
			}
			os.Remove(addr)
		}
	}
	return net.Listen(network, addr)
}
