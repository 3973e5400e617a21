package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/stats"
)

// Config configures a Server.
type Config struct {
	// Kernel configures the Live kernels. Config overwrites
	// Kernel.StartFill, Kernel.StartWriteBack and Kernel.Store (each
	// shard gets a keyspace slice of the shared store): the server owns
	// fill and write-back execution.
	Kernel core.LiveConfig
	// WritebackDepth bounds the asynchronous write-behind queue per
	// shard. 0 (the default) disables write-behind: dirty victims write
	// back synchronously inside the kernel loop, reproducing the
	// pre-write-behind request/IO ordering exactly — the mode the oracle
	// test pins. With depth N, up to N dirty victims per shard ride a
	// flusher goroutine; when the queue is full, a victim with no
	// same-block ordering constraint degrades to a synchronous inline
	// write (backpressure) rather than blocking the loop.
	WritebackDepth int
	// Shards is the number of independent kernel shards (default 1).
	// Each shard owns its own Live — its own cache arena, ACM, and fill
	// accounting — and its own message loop; files hash to a shard at
	// open time, so every block of a file lives in exactly one
	// replacement domain. Shards=1 is the unsharded server, bit for bit.
	Shards int
	// MaxInflight bounds pipelined requests per session (default 32).
	// The bound is what lets the kernel loops respond without ever
	// blocking on a slow client: a session holds one token per
	// unanswered request, so the response channel never fills.
	MaxInflight int
	// IdleTimeout disconnects a session with no traffic for this long
	// (default 2 minutes); disconnect releases the session's owners.
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write (default 30s).
	WriteTimeout time.Duration
	// CheckInvariants runs each shard kernel's cross-structure invariant
	// checks after every session close (tests; too slow for production).
	CheckInvariants bool
	// FileAnnounce, if set, is called on every successful open and
	// create with the file's wire id and name — the mapping a
	// name-addressed base store (the cluster tier's NodeStore) needs to
	// resolve the wire ids it is handed on fills and write-backs. Runs
	// on a shard goroutine; must be cheap and must not call back into
	// the server.
	FileAnnounce func(wire int32, name string)
	// ExtraFill, if set, contributes additional fill counters (the
	// cluster tier's peer-fill accounting, which lives below the shard
	// kernels in the base store) to the aggregated kernel snapshot on
	// every stats surface: the wire stats reply, Metrics, and /metrics.
	// Per-shard sections are unchanged — the counters are not per-shard.
	ExtraFill func() stats.FillStats

	// AdaptAlloc, when non-empty, turns on the per-shard online
	// allocation-policy adapter over the named candidate policies (see
	// cache.ParseAlloc). Each shard samples every candidate for one epoch
	// (AdaptEvery completed hit windows), scores it by EWMA windowed hit
	// ratio, then settles on the best — switching later only when a
	// fresh probe beats the incumbent by more than adaptHysteresisBP
	// basis points. Adapter swaps run on the shard goroutine through the
	// same SetAllocPolicy migration as the set_alloc wire op, and count
	// in the alloc_swaps stat. New panics at construction on an unknown
	// candidate name.
	AdaptAlloc []string
	// AdaptEvery is the adapter epoch length in completed hit windows
	// (default 4; the window itself is Kernel.HitWindow accesses).
	AdaptEvery int64
}

func (c *Config) fillDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.AdaptEvery <= 0 {
		c.AdaptEvery = 4
	}
}

// StatsReply is the JSON body of an OpStats response. With more than one
// shard, Session and Kernel aggregate over the shards and PerShard
// carries the breakdown; a 1-shard server omits PerShard so its wire
// responses are identical to the unsharded server's. Alloc always has
// one entry per shard: policy names are strings, so they ride beside
// the numeric snapshots rather than inside them.
type StatsReply struct {
	Session  core.ProcStats   `json:"session"`
	Kernel   stats.Snapshot   `json:"kernel"`
	PerShard []stats.Snapshot `json:"per_shard,omitempty"`
	Alloc    []AllocStatus    `json:"alloc,omitempty"`
}

// AllocStatus is one shard's allocation-policy line in a StatsReply:
// the active policy plus the windowed hit-ratio gauge behind the
// adapter (basis points over the last completed HitWindow accesses).
type AllocStatus struct {
	Policy      string `json:"policy"`
	HitWindowBP int64  `json:"hit_window_bp"`
	WindowsDone int64  `json:"windows_done"`
}

// SessionInfo describes one live session in a Metrics snapshot. Owner is
// the session's owner id in shard 0 (owner ids are per-shard); Stats
// aggregates the session's counters across all shards.
type SessionInfo struct {
	Owner int
	Name  string
	Stats core.ProcStats
}

// ShardMetrics is one shard's slice of a Metrics snapshot.
type ShardMetrics struct {
	Kernel             stats.Snapshot
	Requests           int64
	Refused            int64
	FillsInflight      int
	WritebacksInflight int
	CachedBlocks       int
	// AllocPolicy is the shard's active allocation policy and
	// AllocHitRatioBP the windowed hit-ratio gauge (basis points over
	// the last completed window) that the online adapter steers by.
	AllocPolicy     string
	AllocHitRatioBP int64
}

// Metrics is a point-in-time server snapshot. The top-level fields
// aggregate over the shards; Shards carries the per-shard breakdown.
type Metrics struct {
	Kernel             stats.Snapshot
	SessionsActive     int
	SessionsTotal      int64
	Requests           int64
	Refused            int64
	FillsInflight      int
	WritebacksInflight int
	CachedBlocks       int
	Shards             []ShardMetrics
	Sessions           []SessionInfo
}

// request is one decoded frame from a session. Requests are pooled:
// body is backed by fb (a size-classed pooled buffer) and both recycle
// through releaseRequest once the handler is done with the bytes.
type request struct {
	id   uint32
	op   uint8
	body []byte
	fb   *frameBuf // pooled storage behind body; nil for empty bodies
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

// releaseRequest returns a request and its body buffer to their pools.
// Called exactly once per request: by the shard loop after a handler
// that did not retain it, by the retaining handler's completion
// callback (handleWrite, whose payload aliases body until the kernel
// consumes it), by the dispatcher for reader-orchestrated ops, or by
// the reader itself when the request dies before dispatch.
func releaseRequest(r *request) {
	if r.fb != nil {
		putFrameBuf(r.fb)
		r.fb = nil
	}
	r.body = nil
	requestPool.Put(r)
}

// outFrame is one response queued to a session's writer. Two shapes:
// an owned frame (body is the writer's to read, slot nil) or a
// zero-copy read response (slot non-nil: payload aliases the pinned
// cache slot's bytes and flags is the response flags byte, both encoded
// by the writer at flush; body stays nil).
type outFrame struct {
	id      uint32
	tag     uint8
	flags   uint8
	body    []byte
	payload []byte
	slot    *cache.Slot
}

// flagBodies are the two flag-only response bodies (miss, hit), shared
// and immutable so read-nodata and write responses allocate nothing.
var flagBodies = [2][]byte{{0}, {FlagHit}}

func flagBody(hit bool) []byte {
	if hit {
		return flagBodies[1]
	}
	return flagBodies[0]
}

// session is one client connection = one cache owner (one owner id per
// shard). The reader and writer goroutines own conn's two directions;
// owners[i] belongs to shard i's loop alone.
type session struct {
	srv  *Server
	conn net.Conn
	name string

	// tokens implements per-session backpressure: the reader takes a
	// token per request and the writer returns it after dequeuing the
	// response, so at most MaxInflight responses can ever be queued —
	// which is why the kernel loops' sends to out can never block, and a
	// dead client can never wedge a kernel.
	tokens chan struct{}
	out    chan outFrame
	die    chan struct{}
	once   sync.Once

	// owners[i] is this session's owner id in shard i, written by shard
	// i's loop when it processes the open message and read only by that
	// shard afterwards.
	owners []int

	// closeLeft counts shards that have not yet processed this session's
	// close message; the last one closes out. outMu orders late sends
	// (a fill completing after some shard closed the session) against
	// that close.
	closeLeft atomic.Int32
	outMu     sync.RWMutex
	outClosed bool
}

// kill tears the connection down; safe from any goroutine, idempotent.
func (s *session) kill() {
	s.once.Do(func() {
		close(s.die)
		s.conn.Close()
	})
}

// send queues a response. Never blocks (see session.tokens); drops the
// frame once every shard has closed the session. Unlike the unsharded
// server, sends arrive from several shard loops, so the closed check and
// the channel close are ordered by outMu instead of loop ownership.
func (s *session) send(id uint32, tag uint8, body []byte) {
	s.outMu.RLock()
	if !s.outClosed {
		s.out <- outFrame{id: id, tag: tag, body: body}
	}
	s.outMu.RUnlock()
}

// sendZC queues a zero-copy read response: the payload slice aliases
// sl's bytes, pinned here (on the kernel goroutine, so the pin is
// ordered before any later mutation of the block) and unpinned by the
// writer after the vectored write — or right here when every shard has
// already closed the session and the frame is dropped.
func (s *session) sendZC(id uint32, flags uint8, sl *cache.Slot, payload []byte) {
	sl.Pin()
	s.outMu.RLock()
	if !s.outClosed {
		s.out <- outFrame{id: id, tag: StatusOK, flags: flags, payload: payload, slot: sl}
		s.outMu.RUnlock()
		return
	}
	s.outMu.RUnlock()
	sl.Unpin()
}

func (s *session) sendErr(id uint32, err error) {
	s.send(id, statusOf(err), []byte(err.Error()))
}

// shardClosed records that one shard has finished closing this session;
// the last shard closes the response channel, ending the writer.
func (s *session) shardClosed() {
	if s.closeLeft.Add(-1) == 0 {
		s.outMu.Lock()
		s.outClosed = true
		close(s.out)
		s.outMu.Unlock()
	}
}

// kmsg is one message into a shard loop. Exactly one field group is set:
// a session event (sess + req/open/close), a completed fill, a closure to
// run on the shard goroutine, or a shutdown phase.
type kmsg struct {
	sess    *session
	req     *request          // with sess: one request frame
	open    bool              // with sess: session arrived
	close   bool              // with sess: session is gone
	fills   []*core.Fill      // a completed fill run (one store call)
	wb      *core.WriteBack   // a completed asynchronous write-back
	wbs     []*core.WriteBack // a completed write-back batch (batched flusher)
	batched bool              // with fills/wbs: the store retired it as one vectored call
	call    func(*shard)      // run on the shard goroutine (metrics, broadcasts)
	drain   bool              // begin refusing requests
	force   bool              // kill every remaining session
}

// shard is one kernel shard: a Live of its own plus the one goroutine
// that owns it. All fields below kch are that goroutine's alone.
type shard struct {
	idx  int
	srv  *Server
	kern *core.Live
	kch  chan kmsg
	// done closes when the shard retires (shutdown): its loop returns
	// and nothing receives from kch again. Senders that hold a session,
	// a fill or a write-back open are counted by the retire condition
	// and send plainly; anyone else goes through post.
	done chan struct{}

	sessions      map[*session]bool
	draining      bool
	fillsInflight int
	requests      int64
	refused       int64

	// wbch feeds the shard's flusher goroutine (nil when write-behind is
	// off). wbOverflow holds write-backs that must execute in FIFO order
	// behind an older same-block write but found wbch full; the loop
	// drains it into wbch as completions free slots. wbInflight counts
	// write-backs handed to the asynchronous path and not yet completed —
	// the drain barrier waits for it, so the flusher never races
	// Server.Close's store writes.
	wbch       chan *core.WriteBack
	wbOverflow []*core.WriteBack
	wbInflight int

	// fq is the shard's fill queue; the worker pool drains it. Closed at
	// retire.
	fq *fillQueue

	// adapter is the shard's online allocation-policy adapter (nil
	// unless Config.AdaptAlloc is set); ticked between requests.
	adapter *allocAdapter
}

// remapStore gives each shard a disjoint keyspace in the shared block
// store by translating shard-local file ids to their wire encoding
// (local*shards + shard) — the same bijection the protocol uses, so a
// block's bytes live under the id the client knows. Close is a no-op:
// the server closes the shared base store exactly once.
type remapStore struct {
	base     disk.Store
	shard, n int32
}

func (r remapStore) ReadBlock(file, blk int32, dst []byte) error {
	return r.base.ReadBlock(file*r.n+r.shard, blk, dst)
}
func (r remapStore) WriteBlock(file, blk int32, src []byte) error {
	return r.base.WriteBlock(file*r.n+r.shard, blk, src)
}
func (r remapStore) Close() error { return nil }

// remapSpans translates a batch's shard-local file ids to their wire
// encoding. The remap is affine in the file id only, so adjacency in
// (file, block) — what the run grouping keys on — is preserved.
func (r remapStore) remapSpans(specs []disk.BlockSpan) []disk.BlockSpan {
	out := make([]disk.BlockSpan, len(specs))
	for i, sp := range specs {
		out[i] = disk.BlockSpan{File: sp.File*r.n + r.shard, Blk: sp.Blk}
	}
	return out
}

// ReadBlocks/WriteBlocks forward batches to the base store, which may
// or may not vector them — ReadBatch/WriteBatch fall back to per-block
// calls on a plain Store, so a remap over a counting test wrapper keeps
// per-block counting intact.
func (r remapStore) ReadBlocks(specs []disk.BlockSpan, dsts [][]byte) []error {
	return disk.ReadBatch(r.base, r.remapSpans(specs), dsts)
}
func (r remapStore) WriteBlocks(specs []disk.BlockSpan, srcs [][]byte) []error {
	return disk.WriteBatch(r.base, r.remapSpans(specs), srcs)
}

// Server is the acfcd daemon: N kernel shards, each a Live owned by one
// loop goroutine, and any number of client sessions feeding them
// requests over per-shard channels.
type Server struct {
	cfg    Config
	shards []*shard   // nil once closed
	store  disk.Store // the shared base store behind the shard remaps; nil once closed
	// kdone closes when Shutdown has completed: every shard has retired
	// and every goroutine the server started has exited.
	kdone chan struct{}

	mu        sync.Mutex
	listeners []net.Listener
	down      bool
	// admitting counts startSession calls between their admission (under
	// mu, while !down) and their last open send: Shutdown waits for it
	// before posting drain, so an admitted session's open precedes drain
	// in every shard's FIFO.
	admitting sync.WaitGroup
	// running counts the server's goroutines: shard loops, fill workers,
	// flushers, session readers and writers.
	running sync.WaitGroup

	sessionsTotal atomic.Int64
	// Broadcast and aggregated ops (control, set_policy, stats) are
	// orchestrated by session readers, not any one shard loop, so their
	// request accounting lives here.
	xRequests atomic.Int64
	xRefused  atomic.Int64
}

// New builds a Server and starts its shard loops.
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
		sh := &shard{
			idx:      i,
			srv:      srv,
			kch:      make(chan kmsg, 256),
			done:     make(chan struct{}),
			sessions: make(map[*session]bool),
			fq:       newFillQueue(),
		}
		kcfg := cfg.Kernel.ShardConfig(i, n)
		store := remapStore{base: base, shard: int32(i), n: int32(n)}
		kcfg.Store = store
		// batchCapable: whether the base store can actually vector a
		// run. The batch counters only tick when it can, so BatchedFills
		// on a plain (or counting test) store honestly reads zero.
		_, batchCapable := base.(disk.BatchStore)
		// Fills queue on the shard's fill queue (the hooks run on the
		// kernel goroutine, which also tracks the queue's high-water
		// mark); a bounded worker pool drains it, groups same-file
		// adjacent blocks, and re-enters the loop one run at a time. The
		// loop counts fills in flight so shutdown can wait for the last.
		kcfg.StartFill = func(fl *core.Fill) {
			sh.fillsInflight++
			sh.kern.NoteFillQueueDepth(sh.fq.push(fl))
		}
		kcfg.StartFillBatch = func(fls []*core.Fill) {
			sh.fillsInflight += len(fls)
			sh.kern.NoteFillQueueDepth(sh.fq.push(fls...))
		}
		srv.running.Add(fillWorkers)
		for w := 0; w < fillWorkers; w++ {
			go sh.fillWorker(store, batchCapable)
		}
		if cfg.WritebackDepth > 0 {
			sh.wbch = make(chan *core.WriteBack, cfg.WritebackDepth)
			kcfg.StartWriteBack = sh.startWriteBack
			// The flusher: one goroutine per shard draining the queue in
			// FIFO order (which is what makes queue-order execution honor
			// every same-block Conflict constraint) and re-entering the
			// kernel loop with the result — batching adjacent victims
			// along the way (fillpool.go). It exits when retire closes
			// wbch.
			srv.running.Add(1)
			go sh.flusher(store, batchCapable)
		}
		sh.kern = core.NewLive(kcfg)
		if len(cfg.AdaptAlloc) > 0 {
			sh.adapter = newAllocAdapter(cfg.AdaptAlloc, cfg.AdaptEvery, sh.kern)
		}
		kerns = append(kerns, sh.kern)
		srv.shards = append(srv.shards, sh)
	}
	core.CheckShardInvariants(kerns, cfg.Kernel)
	srv.running.Add(n)
	for _, sh := range srv.shards {
		go sh.loop()
	}
	return srv
}

// Shards reports the shard count.
func (s *Server) Shards() int { return s.cfg.Shards }

// errRunning is what the stopped-server calls return on a server whose
// Shutdown has not returned: its loops still own the kernels.
var errRunning = errors.New("server: Shutdown has not returned")

// stopped returns the shards of a server between the end of Shutdown
// and Close — the span in which the kernels are quiescent and readable
// from outside their (now ended) loops. ok is false while the server
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
// and every reference to the store, the copy in the configuration and
// the hooks a cluster node hung on it included. A caller that keeps the
// *Server afterwards keeps a husk. Call only after Shutdown has
// returned: the shard loops have ended, and the drain barrier has
// already waited out every asynchronous write-back — so these flush
// writes can never be overtaken by a stale flusher write. A second
// Close is a no-op.
func (s *Server) Close() error {
	shards, ok := s.stopped()
	if !ok {
		return errRunning
	}
	s.mu.Lock()
	store := s.store
	s.shards, s.store = nil, nil
	s.cfg.Kernel.Store, s.cfg.FileAnnounce, s.cfg.ExtraFill = nil, nil, nil
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
// without closing it — the planned-leave handoff's first step, so no
// dirty byte depends on the streaming that follows. Call only after
// Shutdown has returned (same contract as Close); nothing is left to
// flush once closed.
func (s *Server) FlushDirty() error {
	shards, ok := s.stopped()
	if !ok {
		return errRunning
	}
	return flushShards(shards)
}

// CachedBlock is one cached block in a CachedContents enumeration,
// addressed by file name (the coordinate that survives re-creation on
// another node) with the file's shape alongside so the receiver can
// re-create it.
type CachedBlock struct {
	Name string
	Disk int
	Size int // file size in blocks
	Blk  int32
	Data []byte // a copy; the caller owns it
}

// CachedContents enumerates every data-carrying cached block across the
// shards, hottest first (each shard's MRU end leads) — what the cluster
// tier's warm handoff streams to the new hash owners before the node
// retires. Call only after Shutdown has returned: the kernels are
// quiescent, so the slots cannot change under the copy. Returns nil on
// a live server and on a closed one.
func (s *Server) CachedContents() []CachedBlock {
	shards, _ := s.stopped()
	var out []CachedBlock
	for _, sh := range shards {
		order := sh.kern.Cache().GlobalOrder() // LRU to MRU
		for i := len(order) - 1; i >= 0; i-- {
			b := sh.kern.Cache().Peek(order[i])
			if b == nil || b.Slot == nil {
				continue
			}
			f, ok := sh.kern.FS().ByID(b.ID.File)
			if !ok || f.Removed() {
				continue
			}
			data := make([]byte, len(b.Slot.Data()))
			copy(data, b.Slot.Data())
			out = append(out, CachedBlock{
				Name: f.Name(),
				Disk: f.Disk(),
				Size: f.Size(),
				Blk:  b.ID.Num,
				Data: data,
			})
		}
	}
	return out
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
// starts its reader and writer. The registration messages are enqueued
// before the reader exists, so each shard sees the open before any of
// that session's requests. Admission is decided under mu: a connection
// that arrives once Shutdown has begun is closed unserved, and one
// admitted before has its opens queued ahead of every shard's drain
// (Shutdown waits for admitting) — so a retiring shard has seen every
// session it will ever be sent.
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
	se.closeLeft.Store(int32(len(s.shards)))
	for i := 0; i < s.cfg.MaxInflight; i++ {
		se.tokens <- struct{}{}
	}
	s.sessionsTotal.Add(1)
	for _, sh := range s.shards {
		sh.kch <- kmsg{sess: se, open: true}
	}
	s.running.Add(2)
	go se.readLoop()
	go se.writeLoop()
}

func (se *session) readLoop() {
	defer se.srv.running.Done()
	br := bufio.NewReaderSize(se.conn, MaxFrame)
	idle := se.srv.cfg.IdleTimeout
	for {
		// The idle deadline is armed per blocking read, not per frame:
		// a header or body the buffer already holds costs no timer
		// update, so a pipelined burst arms it once per read syscall.
		if br.Buffered() < frameHeaderLen {
			se.conn.SetReadDeadline(time.Now().Add(idle))
		}
		id, op, n, err := ReadFrameHeader(br)
		if err != nil {
			break
		}
		r := requestPool.Get().(*request)
		r.id, r.op = id, op
		if n > 0 {
			r.fb = getFrameBuf(n)
			r.body = r.fb.b[:n]
			if br.Buffered() < n {
				se.conn.SetReadDeadline(time.Now().Add(idle))
			}
			if _, err := io.ReadFull(br, r.body); err != nil {
				releaseRequest(r)
				break
			}
		}
		select {
		case <-se.tokens:
		case <-se.die:
		}
		select {
		case <-se.die:
			// Don't enqueue after kill: the close messages must be the
			// session's last in every shard.
			releaseRequest(r)
		default:
			se.srv.dispatch(se, r)
			continue
		}
		break
	}
	se.kill()
	for _, sh := range se.srv.shards {
		sh.kch <- kmsg{sess: se, close: true}
	}
}

// dispatch routes one frame. Shard-local ops go to their file's (or
// name's) shard; broadcast ops (control, set_policy) and the stats
// aggregation are orchestrated here, on the reader goroutine, which
// keeps each shard's FIFO ordered: a broadcast completes in every shard
// before the reader can enqueue the session's next frame.
func (s *Server) dispatch(se *session, r *request) {
	switch r.op {
	case OpControl, OpSetPolicy, OpSetAlloc:
		// All complete (every shard round-trip included) before
		// returning, so the request recycles here.
		s.broadcastCtl(se, r)
		releaseRequest(r)
	case OpStats:
		s.aggregateStats(se, r)
		releaseRequest(r)
	default:
		s.shardFor(r.op, r.body).kch <- kmsg{sess: se, req: r}
	}
}

// shardFor picks the shard a frame belongs to: file-scoped ops route by
// the wire file id (wire%N is the shard, by construction), name-scoped
// ops by a stable hash of the name — the same hash open used, so a
// file's blocks always land in the shard that owns the file. Anything
// unroutable (ping, get_policy, malformed bodies) anchors at shard 0.
func (s *Server) shardFor(op uint8, body []byte) *shard {
	n := uint32(len(s.shards))
	if n == 1 {
		return s.shards[0]
	}
	switch op {
	case OpRead, OpWrite, OpClose, OpSetPriority, OpGetPriority, OpSetTempPri:
		if len(body) >= 4 {
			return s.shards[be32(body)%n]
		}
	case OpOpen, OpRemove:
		return s.shards[hashName(body)%n]
	case OpCreate:
		if len(body) > 5 {
			return s.shards[hashName(body[5:])%n]
		}
	}
	return s.shards[0]
}

// hashName is FNV-1a over the file name: stable across runs (replay and
// restart see the same placement), cheap, and well-mixed on short paths.
func hashName(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// errDraining is the in-band refusal a draining shard returns to a
// broadcast closure.
var errDraining = errors.New("server draining")

// broadcastCtl runs a control-plane op (control, set_policy) in every
// shard, in shard order, and replies once: these ops target the
// session's manager state, which exists per shard. First error wins; a
// refusal from any shard refuses the whole op. Runs on the session's
// reader goroutine; each shard's closure is complete before the next is
// posted, and a live registered session keeps its shard loops
// consuming, so the round-trips cannot deadlock.
func (s *Server) broadcastCtl(se *session, r *request) {
	s.xRequests.Add(1)
	var alloc cache.Alloc
	switch r.op {
	case OpControl:
		if len(r.body) != 1 {
			se.send(r.id, StatusBadRequest, []byte("control: want 1-byte body"))
			return
		}
	case OpSetPolicy:
		if len(r.body) != 5 {
			se.send(r.id, StatusBadRequest, []byte("set_policy: want 5-byte body"))
			return
		}
	case OpSetAlloc:
		// Validate before touching any shard so an unknown name can
		// never leave the shards split across policies.
		a, err := cache.ParseAlloc(string(r.body))
		if err != nil {
			se.send(r.id, StatusUnknownPolicy, []byte(err.Error()))
			return
		}
		alloc = a
	}
	var firstErr error
	refused := false
	for _, sh := range s.shards {
		reply := make(chan error, 1)
		sh.kch <- kmsg{call: func(sh *shard) {
			if sh.draining {
				reply <- errDraining
				return
			}
			ow := se.owners[sh.idx]
			var err error
			switch r.op {
			case OpControl:
				if r.body[0] != 0 {
					err = sh.kern.EnableControl(ow)
				} else {
					err = sh.kern.DisableControl(ow)
				}
			case OpSetPolicy:
				err = sh.kern.SetPolicy(ow, int(int32(be32(r.body[0:]))), acm.Policy(r.body[4]))
			case OpSetAlloc:
				err = sh.kern.SetAllocPolicy(alloc)
			}
			reply <- err
		}}
		if err := <-reply; err == errDraining {
			refused = true
		} else if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	switch {
	case refused:
		s.xRefused.Add(1)
		se.send(r.id, StatusRefused, []byte("server shutting down"))
	case firstErr != nil:
		se.sendErr(r.id, firstErr)
	case r.op == OpSetPolicy:
		se.send(r.id, StatusOK, []byte{r.body[4]})
	case r.op == OpSetAlloc:
		se.send(r.id, StatusOK, []byte(alloc.String()))
	default:
		se.send(r.id, StatusOK, nil)
	}
}

// aggregateStats serves OpStats: per-shard owner counters and kernel
// snapshots, folded into one reply. Reader-orchestrated like
// broadcastCtl.
func (s *Server) aggregateStats(se *session, r *request) {
	s.xRequests.Add(1)
	type rep struct {
		st    core.ProcStats
		snap  stats.Snapshot
		alloc AllocStatus
		err   error
	}
	var agg core.ProcStats
	var snaps []stats.Snapshot
	var allocs []AllocStatus
	var firstErr error
	refused := false
	for _, sh := range s.shards {
		reply := make(chan rep, 1)
		sh.kch <- kmsg{call: func(sh *shard) {
			if sh.draining {
				reply <- rep{err: errDraining}
				return
			}
			st, err := sh.kern.OwnerStats(se.owners[sh.idx])
			reply <- rep{st: st, snap: sh.kern.Snapshot(), err: err, alloc: AllocStatus{
				Policy:      sh.kern.AllocPolicy().String(),
				HitWindowBP: sh.kern.HitRatioWindowBP(),
				WindowsDone: sh.kern.HitWindowsDone(),
			}}
		}}
		rp := <-reply
		switch {
		case rp.err == errDraining:
			refused = true
		case rp.err != nil:
			if firstErr == nil {
				firstErr = rp.err
			}
		default:
			agg.Add(rp.st)
			snaps = append(snaps, rp.snap)
			allocs = append(allocs, rp.alloc)
		}
	}
	if refused {
		s.xRefused.Add(1)
		se.send(r.id, StatusRefused, []byte("server shutting down"))
		return
	}
	if firstErr != nil {
		se.sendErr(r.id, firstErr)
		return
	}
	sr := StatsReply{Session: agg, Kernel: stats.Aggregate(snaps), Alloc: allocs}
	if s.cfg.ExtraFill != nil {
		sr.Kernel.Fill.Accumulate(s.cfg.ExtraFill())
	}
	if len(snaps) > 1 {
		sr.PerShard = snaps
	}
	body, err := json.Marshal(sr)
	if err != nil {
		se.sendErr(r.id, err)
		return
	}
	se.send(r.id, StatusOK, body)
}

func (se *session) writeLoop() {
	defer se.srv.running.Done()
	// Keep draining out even after a write error: the shards' sends and
	// the reader's tokens both depend on this loop consuming (a dead
	// connection just surrenders each frame's slot pin). Frames batch in
	// the frameWriter while more responses are already queued and flush
	// when the queue goes idle — a pipelined burst of reads becomes one
	// vectored write straight from the cache arena, a lone round-trip
	// still flushes immediately.
	w := newFrameWriter(se.conn, se.srv.cfg.WriteTimeout)
	dead := false
	for f := range se.out {
		for more := true; more; {
			if !dead && w.full() {
				if err := w.flush(); err != nil {
					dead = true
					se.kill()
				}
			}
			if dead {
				releaseFrame(&f)
			} else {
				w.add(&f)
			}
			select {
			case se.tokens <- struct{}{}:
			default:
			}
			select {
			case next, ok := <-se.out:
				if !ok {
					more = false
					break
				}
				f = next
			default:
				more = false
			}
		}
		if !dead {
			if err := w.flush(); err != nil {
				dead = true
				se.kill()
			}
		}
	}
}

// Shutdown drains the server: listeners close, connections that arrive
// from here on are closed unserved, every queued and in-flight request
// completes or is refused (StatusRefused), and each shard retires — its
// loop, fill workers and flusher end — once its last session
// disconnects and its last fill and write-back land. If ctx expires
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
	// Every admitted session has queued its opens; none can follow. A
	// shard cannot retire before it sees drain, so these sends are plain.
	s.admitting.Wait()
	for _, sh := range s.shards {
		sh.kch <- kmsg{drain: true}
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
				sh.post(kmsg{force: true})
			}
		}
		<-sh.done
	}
	s.running.Wait()
	close(s.kdone)
	return err
}

// post is the late sender's send: for a message that holds nothing open
// in the shard — no session, fill or write-back the retire condition
// counts — and so may find the loop gone. It reports whether the
// message was queued; a queued message can still go unread if the shard
// retires first, so a caller awaiting a reply selects on done as well.
func (sh *shard) post(m kmsg) bool {
	select {
	case sh.kch <- m:
		return true
	case <-sh.done:
		return false
	}
}

// Metrics snapshots the server counters; ok is false once shutdown has
// retired any shard.
func (s *Server) Metrics() (Metrics, bool) {
	type shardSess struct {
		se    *session
		owner int
		stats core.ProcStats
	}
	type shardRep struct {
		m        ShardMetrics
		sessions []shardSess
	}
	s.mu.Lock()
	shards, extraFill := s.shards, s.cfg.ExtraFill
	s.mu.Unlock()
	if shards == nil {
		return Metrics{}, false
	}
	m := Metrics{
		SessionsTotal: s.sessionsTotal.Load(),
		Requests:      s.xRequests.Load(),
		Refused:       s.xRefused.Load(),
	}
	var kernels []stats.Snapshot
	merged := make(map[*session]*SessionInfo)
	var order []*session
	for _, sh := range shards {
		reply := make(chan shardRep, 1)
		queued := sh.post(kmsg{call: func(sh *shard) {
			rp := shardRep{m: ShardMetrics{
				Kernel:             sh.kern.Snapshot(),
				Requests:           sh.requests,
				Refused:            sh.refused,
				FillsInflight:      sh.fillsInflight,
				WritebacksInflight: sh.wbInflight,
				CachedBlocks:       sh.kern.Cache().Len(),
				AllocPolicy:        sh.kern.AllocPolicy().String(),
				AllocHitRatioBP:    sh.kern.HitRatioWindowBP(),
			}}
			for se := range sh.sessions {
				st, _ := sh.kern.OwnerStats(se.owners[sh.idx])
				rp.sessions = append(rp.sessions, shardSess{se: se, owner: se.owners[sh.idx], stats: st})
			}
			reply <- rp
		}})
		if !queued {
			return Metrics{}, false
		}
		var rp shardRep
		select {
		case rp = <-reply:
		case <-sh.done:
			return Metrics{}, false
		}
		m.Shards = append(m.Shards, rp.m)
		m.Requests += rp.m.Requests
		m.Refused += rp.m.Refused
		m.FillsInflight += rp.m.FillsInflight
		m.WritebacksInflight += rp.m.WritebacksInflight
		m.CachedBlocks += rp.m.CachedBlocks
		kernels = append(kernels, rp.m.Kernel)
		for _, ss := range rp.sessions {
			mi := merged[ss.se]
			if mi == nil {
				mi = &SessionInfo{Owner: ss.owner, Name: ss.se.name}
				merged[ss.se] = mi
				order = append(order, ss.se)
			}
			mi.Stats.Add(ss.stats)
		}
	}
	m.Kernel = stats.Aggregate(kernels)
	if extraFill != nil {
		m.Kernel.Fill.Accumulate(extraFill())
	}
	m.SessionsActive = len(order)
	for _, se := range order {
		m.Sessions = append(m.Sessions, *merged[se])
	}
	return m, true
}

// --- the shard loops ---

// loop is the one goroutine that owns this shard's Live kernel. Every
// cache operation in the shard happens here, in arrival order — the
// serialization rule that lets the DES-era cache and ACM structures run
// a concurrent server unchanged, now applied per replacement domain.
//
// The loop returns when the shard retires. Until then it receives
// everything sent: a session's messages (open first, close last) are
// sent while the session is registered or about to be, a completion
// while its fill or write-back is counted in flight, and the retire
// condition is that none of those is left — so request dispatch and
// completions send to kch unconditionally. Only senders that hold
// nothing open in the shard can find it gone; they use post.
func (sh *shard) loop() {
	defer sh.srv.running.Done()
	for m := range sh.kch {
		switch {
		case m.fills != nil:
			sh.fillsInflight -= len(m.fills)
			if m.batched {
				sh.kern.CountFillBatch(len(m.fills))
			}
			for _, fl := range m.fills {
				sh.kern.CompleteFill(fl)
			}
		case m.wbs != nil:
			sh.wbInflight -= len(m.wbs)
			if m.batched {
				sh.kern.CountWritebackBatches(1)
			}
			for _, wb := range m.wbs {
				sh.kern.CompleteWriteBack(wb)
			}
			sh.drainOverflow()
		case m.wb != nil:
			sh.wbInflight--
			sh.kern.CompleteWriteBack(m.wb)
			sh.drainOverflow()
		case m.call != nil:
			m.call(sh)
		case m.drain:
			sh.draining = true
		case m.force:
			for se := range sh.sessions {
				se.kill()
			}
		case m.sess != nil && m.open:
			sh.openSession(m.sess)
		case m.sess != nil && m.close:
			sh.closeSession(m.sess)
		case m.sess != nil && m.req != nil:
			if !sh.handle(m.sess, m.req) {
				releaseRequest(m.req)
			}
		}
		if sh.draining && len(sh.sessions) == 0 && sh.fillsInflight == 0 && sh.wbInflight == 0 {
			sh.retire()
			return
		}
	}
}

// retire ends the shard once it is draining, no session can enqueue
// more work, no fill is in flight and the write-behind queue is empty —
// the drain barrier that makes the stopped server's direct kernel and
// store access (FlushDirty, CachedContents, Close) safe. Closing wbch
// and the fill queue ends the flusher and the fill workers.
func (sh *shard) retire() {
	if sh.wbch != nil {
		close(sh.wbch)
	}
	sh.fq.close()
	close(sh.done)
}

// startWriteBack is the shard's LiveConfig.StartWriteBack hook; it runs
// on the shard loop goroutine and never blocks it. A write-back goes to
// the flusher queue when there is room (behind any overflow, preserving
// FIFO); a Conflict write-back — one that must not overtake an older
// pending write of the same block — waits in the overflow list when the
// queue is full (a removed file's discard is always one: one entry per
// remove, however many blocks it names, any of whose older writes may
// be in the queue); anything else degrades to a synchronous inline
// write, which is the backpressure rule: a full queue slows the evicting
// request down to today's synchronous cost instead of growing the queue
// without bound or stalling the whole shard behind one block.
func (sh *shard) startWriteBack(wb *core.WriteBack) {
	sh.drainOverflow()
	if len(sh.wbOverflow) == 0 {
		select {
		case sh.wbch <- wb:
			sh.wbInflight++
			return
		default:
		}
	}
	if wb.Conflict {
		sh.wbOverflow = append(sh.wbOverflow, wb)
		sh.wbInflight++
		return
	}
	// Inline is safe exactly because !Conflict: no older write of this
	// block is queued anywhere, so writing now cannot reorder anything.
	wb.Stalled = true
	wb.Err = sh.kern.Store().WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
	sh.kern.CompleteWriteBack(wb)
}

// drainOverflow moves queued-behind-the-queue write-backs into wbch in
// FIFO order, as far as capacity allows.
func (sh *shard) drainOverflow() {
	for len(sh.wbOverflow) > 0 {
		select {
		case sh.wbch <- sh.wbOverflow[0]:
			sh.wbOverflow[0] = nil
			sh.wbOverflow = sh.wbOverflow[1:]
		default:
			return
		}
	}
	if len(sh.wbOverflow) == 0 {
		sh.wbOverflow = nil // let the backing array go
	}
}

func (sh *shard) openSession(se *session) {
	se.owners[sh.idx] = sh.kern.AddOwner(se.name)
	sh.sessions[se] = true
}

// closeSession releases a disconnected session's owner in this shard:
// its manager is destroyed and its blocks transferred or evicted — the
// cache's revoked owner path, run on every client disconnect, once per
// shard.
func (sh *shard) closeSession(se *session) {
	delete(sh.sessions, se)
	sh.kern.ReleaseOwner(se.owners[sh.idx])
	if sh.srv.cfg.CheckInvariants {
		sh.kern.CheckInvariants()
	}
	se.shardClosed()
}

// --- request dispatch (shard goroutines) ---

func statusOf(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, core.ErrOutOfRange):
		return StatusRange
	case errors.Is(err, core.ErrUnknownOwner):
		return StatusRevoked
	case errors.Is(err, core.ErrNoControl), errors.Is(err, core.ErrControlled):
		return StatusNoControl
	case errors.Is(err, cache.ErrUnknownAlloc):
		return StatusUnknownPolicy
	case errors.Is(err, fs.ErrExists):
		return StatusExists
	case errors.Is(err, acm.ErrLimit), errors.Is(err, fs.ErrNoSpace):
		return StatusLimit
	}
	return StatusIO
}

// wire translates a shard-local file id to its wire encoding and local
// inverts it: wire = local*N + shard. With one shard both are the
// identity, keeping the unsharded server's ids bit-for-bit.
func (sh *shard) wire(local fs.FileID) fs.FileID {
	return local*fs.FileID(len(sh.srv.shards)) + fs.FileID(sh.idx)
}

func (sh *shard) local(wire fs.FileID) fs.FileID {
	return wire / fs.FileID(len(sh.srv.shards))
}

// handle runs one request on the shard goroutine. It reports whether
// the handler retained r past its return (handleWrite, whose payload
// aliases r.body until the kernel's completion callback); when false,
// the shard loop recycles r immediately — so handlers that complete
// asynchronously (handleRead) must copy what they need out of r first.
func (sh *shard) handle(se *session, r *request) (retained bool) {
	sh.requests++
	if sh.adapter != nil {
		sh.adapter.tick()
	}
	if sh.draining {
		sh.refused++
		se.send(r.id, StatusRefused, []byte("server shutting down"))
		return false
	}
	switch r.op {
	case OpPing:
		se.send(r.id, StatusOK, nil)
	case OpOpen:
		sh.handleOpen(se, r)
	case OpCreate:
		sh.handleCreate(se, r)
	case OpRead:
		sh.handleRead(se, r)
	case OpWrite:
		return sh.handleWrite(se, r)
	case OpClose:
		if len(r.body) != 4 {
			se.send(r.id, StatusBadRequest, []byte("close: want 4-byte body"))
			return false
		}
		// Close is advisory in this kernel (blocks stay cached, as in
		// the paper, until evicted or the owner disconnects).
		se.send(r.id, StatusOK, nil)
	case OpRemove:
		if err := sh.kern.Remove(se.owners[sh.idx], string(r.body)); err != nil {
			se.sendErr(r.id, err)
			return false
		}
		se.send(r.id, StatusOK, nil)
	case OpGetAlloc:
		se.send(r.id, StatusOK, []byte(sh.kern.AllocPolicy().String()))
	case OpSetPriority, OpGetPriority, OpGetPolicy, OpSetTempPri:
		sh.handleFbehavior(se, r)
	default:
		se.send(r.id, StatusBadRequest, []byte(fmt.Sprintf("unknown op %d", r.op)))
	}
	return false
}

func (sh *shard) handleOpen(se *session, r *request) {
	f, err := sh.kern.Open(se.owners[sh.idx], string(r.body))
	if err != nil {
		se.sendErr(r.id, err)
		return
	}
	if fa := sh.srv.cfg.FileAnnounce; fa != nil {
		fa(int32(sh.wire(f.ID())), f.Name())
	}
	resp := make([]byte, 8)
	put32(resp[0:], uint32(sh.wire(f.ID())))
	put32(resp[4:], uint32(f.Size()))
	se.send(r.id, StatusOK, resp)
}

func (sh *shard) handleCreate(se *session, r *request) {
	if len(r.body) < 6 {
		se.send(r.id, StatusBadRequest, []byte("create: short body"))
		return
	}
	d := int(r.body[0])
	size := int(be32(r.body[1:]))
	name := string(r.body[5:])
	if name == "" {
		se.send(r.id, StatusBadRequest, []byte("create: empty name"))
		return
	}
	f, err := sh.kern.Create(se.owners[sh.idx], name, d, size)
	if err != nil {
		se.sendErr(r.id, err)
		return
	}
	if fa := sh.srv.cfg.FileAnnounce; fa != nil {
		fa(int32(sh.wire(f.ID())), f.Name())
	}
	resp := make([]byte, 8)
	put32(resp[0:], uint32(sh.wire(f.ID())))
	put32(resp[4:], uint32(f.Size()))
	se.send(r.id, StatusOK, resp)
}

// readCtx is one in-flight read's reply state, pooled so the hot path
// allocates nothing. It copies every field it needs out of the request
// (which recycles when the handler returns) and implements
// core.ReadReply; the kernel invokes ReadDone on the shard goroutine,
// either inline (hit) or when the fill completes.
type readCtx struct {
	sh    *shard
	se    *session
	id    uint32
	off   int
	size  int
	flags uint8
	bid   cache.BlockID
}

var readCtxPool = sync.Pool{New: func() any { return new(readCtx) }}

func (rc *readCtx) ReadDone(data []byte, hit bool, err error) {
	sh, se, id := rc.sh, rc.se, rc.id
	off, size, flags, bid := rc.off, rc.size, rc.flags, rc.bid
	// The pool outlives every server: a parked readCtx must not pin the
	// shard (its kernel, its arena) or the session it last served.
	rc.sh, rc.se = nil, nil
	readCtxPool.Put(rc)
	if err != nil {
		se.sendErr(id, err)
		return
	}
	if flags&ReadNoData != 0 {
		se.send(id, StatusOK, flagBody(hit))
		return
	}
	var fl uint8
	if hit {
		fl = FlagHit
	}
	// Zero-copy when the bytes still live in the cached buffer's slot:
	// running on the kernel goroutine, nothing can evict or mutate the
	// block between this check and the pin inside sendZC. A fill whose
	// buffer was stolen mid-flight hands us a detached copy instead
	// (data no longer backs the cached slot) — serve that by value.
	if b := sh.kern.Cache().Peek(bid); b != nil && b.Slot != nil && b.Slot.Backs(data) {
		se.sendZC(id, fl, b.Slot, data[off:off+size])
		return
	}
	sh.kern.CountWireFallback()
	resp := make([]byte, 1+size)
	resp[0] = fl
	copy(resp[1:], data[off:off+size])
	se.send(id, StatusOK, resp)
}

func (sh *shard) handleRead(se *session, r *request) {
	if len(r.body) != 13 {
		se.send(r.id, StatusBadRequest, []byte("read: want 13-byte body"))
		return
	}
	fid := sh.local(fs.FileID(be32(r.body[0:])))
	blk := int32(be32(r.body[4:]))
	rc := readCtxPool.Get().(*readCtx)
	*rc = readCtx{
		sh:    sh,
		se:    se,
		id:    r.id,
		off:   int(be16(r.body[8:])),
		size:  int(be16(r.body[10:])),
		flags: r.body[12],
		bid:   cache.BlockID{File: fid, Num: blk},
	}
	sh.kern.ReadTo(se.owners[sh.idx], fid, blk, rc.off, rc.size, rc)
}

func (sh *shard) handleWrite(se *session, r *request) bool {
	if len(r.body) < 12 {
		se.send(r.id, StatusBadRequest, []byte("write: short body"))
		return false
	}
	fid := sh.local(fs.FileID(be32(r.body[0:])))
	blk := int32(be32(r.body[4:]))
	off := int(be16(r.body[8:]))
	dlen := int(be16(r.body[10:]))
	if len(r.body) != 12+dlen {
		se.send(r.id, StatusBadRequest, []byte("write: length mismatch"))
		return false
	}
	payload := r.body[12:]
	id := r.id
	// The request is retained until the kernel has consumed payload
	// (which aliases r.body): on every completion path — hit, filled
	// miss, error — the copy into the cache happens before this
	// callback runs, so releasing here is safe.
	sh.kern.Write(se.owners[sh.idx], fid, blk, off, payload, func(hit bool, err error) {
		releaseRequest(r)
		if err != nil {
			se.sendErr(id, err)
			return
		}
		se.send(id, StatusOK, flagBody(hit))
	})
	return true
}

func (sh *shard) handleFbehavior(se *session, r *request) {
	owner := se.owners[sh.idx]
	switch r.op {
	case OpSetPriority:
		if len(r.body) != 8 {
			se.send(r.id, StatusBadRequest, []byte("set_priority: want 8-byte body"))
			return
		}
		err := sh.kern.SetPriority(owner, sh.local(fs.FileID(be32(r.body[0:]))), int(int32(be32(r.body[4:]))))
		if err != nil {
			se.sendErr(r.id, err)
			return
		}
		se.send(r.id, StatusOK, nil)
	case OpGetPriority:
		if len(r.body) != 4 {
			se.send(r.id, StatusBadRequest, []byte("get_priority: want 4-byte body"))
			return
		}
		prio, err := sh.kern.GetPriority(owner, sh.local(fs.FileID(be32(r.body[0:]))))
		if err != nil {
			se.sendErr(r.id, err)
			return
		}
		resp := make([]byte, 4)
		put32(resp, uint32(int32(prio)))
		se.send(r.id, StatusOK, resp)
	case OpGetPolicy:
		if len(r.body) != 4 {
			se.send(r.id, StatusBadRequest, []byte("get_policy: want 4-byte body"))
			return
		}
		pol, err := sh.kern.GetPolicy(owner, int(int32(be32(r.body[0:]))))
		if err != nil {
			se.sendErr(r.id, err)
			return
		}
		se.send(r.id, StatusOK, []byte{uint8(pol)})
	case OpSetTempPri:
		if len(r.body) != 16 {
			se.send(r.id, StatusBadRequest, []byte("set_temppri: want 16-byte body"))
			return
		}
		err := sh.kern.SetTempPri(owner, sh.local(fs.FileID(be32(r.body[0:]))),
			int32(be32(r.body[4:])), int32(be32(r.body[8:])), int(int32(be32(r.body[12:]))))
		if err != nil {
			se.sendErr(r.id, err)
			return
		}
		se.send(r.id, StatusOK, nil)
	}
}
