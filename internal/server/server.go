package server

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
)

// Server is the acfcd daemon: N kernel shards, each a Live owned by
// whoever holds its lock, and any number of client sessions whose
// readers run their requests in the shards themselves.
type Server struct {
	cfg    Config
	shards []*shard   // nil once closed
	store  disk.Store // the block store every shard's kernel reads and writes; nil once closed
	// kdone closes when Shutdown has completed: every shard has retired
	// and every goroutine the server started has exited.
	kdone chan struct{}

	mu        sync.Mutex
	listeners []net.Listener
	down      bool
	// admitting counts startSession calls between their admission (under
	// mu, while !down) and their last open: Shutdown waits for it before
	// it drains the shards, so an admitted session is registered in every
	// shard before any shard drains.
	admitting sync.WaitGroup
	// running counts the server's goroutines: fill workers, write-behind
	// batches at the store, session readers and writers.
	running sync.WaitGroup

	sessionsTotal atomic.Int64
	// Broadcast and aggregated ops (control, set_policy, stats) are
	// orchestrated by session readers, not in any one shard, so their
	// request accounting lives here.
	xRequests atomic.Int64
	xRefused  atomic.Int64
}

// New builds a Server and starts its shards' fill workers.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	base := cfg.Kernel.Store
	if base == nil {
		base = disk.NewMemStore()
	}
	srv := &Server{cfg: cfg, store: base, kdone: make(chan struct{})}
	n := cfg.Shards
	kerns := make([]*core.Live, 0, n)
	for i := 0; i < n; i++ {
		sh := srv.newShard(i)
		srv.running.Add(fillWorkers)
		for w := 0; w < fillWorkers; w++ {
			go sh.fillWorker()
		}
		kerns = append(kerns, sh.kern)
		srv.shards = append(srv.shards, sh)
	}
	core.CheckShardInvariants(kerns, cfg.Kernel)
	return srv
}

// newShard builds shard i of the server's cfg.Shards over its base
// store, kernel included, and starts nothing: New starts its fill
// workers.
func (srv *Server) newShard(i int) *shard {
	cfg, n := srv.cfg, srv.cfg.Shards
	sh := &shard{
		idx:      i,
		srv:      srv,
		done:     make(chan struct{}),
		sessions: make(map[*session]bool),
		fq:       newFillQueue(),
	}
	kcfg := cfg.Kernel.ShardConfig(i, n)
	kcfg.Store = srv.store
	_, sh.vectors = srv.store.(disk.BatchStore)
	sh.announce, _ = srv.store.(announcer)
	// Fills queue on the shard's fill queue (the hook runs under the
	// shard lock, which also covers the queue's high-water mark); a
	// bounded worker pool drains it, groups same-file adjacent blocks,
	// and completes them in the shard one run at a time. The shard
	// counts fills in flight so shutdown can wait for the last, and
	// write-behind so it can let them go first.
	kcfg.StartFill = func(fls []*core.Fill) {
		sh.fillsIssued += int64(len(fls))
		sh.kern.NoteFillQueueDepth(sh.fq.push(fls))
	}
	if cfg.WritebackDepth > 0 {
		// Write-behind: the shard queues victims in one FIFO and cuts it
		// into batches of one queue's worth, each written behind the
		// fills then in flight (shard.writeBehind).
		sh.wbDepth, sh.wbFull = cfg.WritebackDepth, min(cfg.WritebackDepth, maxWritebackBatch)
		kcfg.StartWriteBack = sh.startWriteBack
	}
	sh.kern = core.NewLive(kcfg)
	return sh
}

// Serve accepts connections on ln until the listener is closed. One
// Server may serve several listeners concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.startSession(conn)
	}
}

// startSession registers conn as a new owner session in every shard and
// starts its reader and writer. The session is registered in every
// shard before the reader exists, so each shard sees the open before
// any of that session's requests. Admission is decided under mu: a
// connection that arrives once Shutdown has begun is closed unserved,
// and one admitted before is registered everywhere before any shard
// drains (Shutdown waits for admitting) — so a retiring shard has seen
// every session it will ever serve.
func (s *Server) startSession(conn net.Conn) {
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.admitting.Add(1)
	s.mu.Unlock()
	defer s.admitting.Done()
	se := &session{
		srv:    s,
		conn:   conn,
		name:   conn.RemoteAddr().String(),
		tokens: make(chan struct{}, s.cfg.MaxInflight),
		out:    make(chan outFrame, s.cfg.MaxInflight),
		die:    make(chan struct{}),
		owners: make([]int, len(s.shards)),
	}
	for i := 0; i < s.cfg.MaxInflight; i++ {
		se.tokens <- struct{}{}
	}
	s.sessionsTotal.Add(1)
	for _, sh := range s.shards {
		sh.ask(func(sh *shard) { sh.openSession(se) })
	}
	s.running.Add(2)
	go se.readLoop()
	go se.writeLoop()
}

// Shutdown drains the server: listeners close, connections that arrive
// from here on are closed unserved, every queued and in-flight request
// completes or is refused (StatusRefused), and each shard retires — its
// fill workers end — once its last session disconnects and its last
// fill and write-back land. If ctx expires
// first, remaining sessions are disconnected forcibly; Shutdown still
// waits for the drain (fills are local I/O and always complete). When
// it returns, every goroutine the server started has exited. A second
// call waits for the first and returns nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.down
	s.down = true
	lns := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	if already {
		<-s.kdone
		return nil
	}
	for _, ln := range lns {
		ln.Close()
	}
	// Every admitted session is registered in every shard; none can
	// follow. A shard cannot retire before it drains, so these asks run.
	s.admitting.Wait()
	for _, sh := range s.shards {
		sh.ask(func(sh *shard) { sh.draining = true })
	}
	var err error
	for _, sh := range s.shards {
		select {
		case <-sh.done:
			continue
		case <-ctx.Done():
		}
		if err == nil {
			err = ctx.Err()
			for _, sh := range s.shards {
				sh.ask(func(sh *shard) {
					for se := range sh.sessions {
						se.kill()
					}
				})
			}
		}
		<-sh.done
	}
	s.running.Wait()
	close(s.kdone)
	return err
}

// Shards reports the shard count.
func (s *Server) Shards() int { return s.cfg.Shards }

// errRunning is what the stopped-server calls return on a server whose
// Shutdown has not returned: its shards still own the kernels.
var errRunning = errors.New("server: Shutdown has not returned")

// stopped returns the shards of a server between the end of Shutdown
// and Close — the span in which the kernels are quiescent and readable
// without their (now retired) shard locks. ok is false while the server
// runs; the slice is nil once closed.
func (s *Server) stopped() (shards []*shard, ok bool) {
	select {
	case <-s.kdone:
	default:
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards, true
}

func flushShards(shards []*shard) error {
	var firstErr error
	for _, sh := range shards {
		if _, err := sh.kern.FlushDirty(core.MaxTime); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close flushes every shard kernel's dirty blocks, closes the shared
// block store, and lets go of both: the kernels (their cache arenas)
// and every reference to the store, the copy in the configuration
// included. A caller that keeps the *Server afterwards keeps a husk.
// Call only after Shutdown has returned: the shards have retired, and
// the drain barrier has already waited out every asynchronous write-back
// — so these flush writes can never be overtaken by a stale write-behind
// batch. A second Close is a no-op.
func (s *Server) Close() error {
	shards, ok := s.stopped()
	if !ok {
		return errRunning
	}
	s.mu.Lock()
	store := s.store
	s.shards, s.store = nil, nil
	s.cfg.Kernel.Store = nil
	s.mu.Unlock()
	if store == nil {
		return nil
	}
	err := flushShards(shards)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}

// FlushDirty writes every shard kernel's dirty blocks to the store
// without closing it — the planned leave's step before the handoff,
// so every name it hands over is current in the store. Call only after
// Shutdown has returned (same contract as Close); nothing is left to
// flush once closed.
func (s *Server) FlushDirty() error {
	shards, ok := s.stopped()
	if !ok {
		return errRunning
	}
	return flushShards(shards)
}

// LiveFiles lists every live file of every shard, shard by shard and
// in ascending id within a shard: the namespace the cluster tier's
// planned leave hands to the files' new owners. Call only after Shutdown
// has returned: the kernels are quiescent, so no file can come or go
// under the walk. Returns nil on a running server and on a closed one.
func (s *Server) LiveFiles() []*fs.File {
	shards, _ := s.stopped()
	var out []*fs.File
	for _, sh := range shards {
		out = slices.AppendSeq(out, sh.kern.FS().Files())
	}
	return out
}
