package server

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

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
// Called exactly once per request: by the dispatcher after a handler
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
// owners[i] belongs to shard i and is read and written under its lock.
type session struct {
	srv  *Server
	conn net.Conn
	name string

	// tokens implements per-session backpressure: the reader takes a
	// token per request and the writer returns it after dequeuing the
	// response, so at most MaxInflight responses can ever be queued —
	// which is why a send to out under a shard lock can never block, and
	// a dead client can never wedge a kernel.
	tokens chan struct{}
	out    chan outFrame
	die    chan struct{}
	once   sync.Once

	// owners[i] is this session's owner id in shard i, written when the
	// session opens there and read only under shard i's lock afterwards.
	owners []int

	// closeLeft counts shards that have not yet closed this session; the
	// last one closes out. outMu orders late sends (a fill completing
	// after some shard closed the session) against that close. It is
	// never held while a shard lock is taken.
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
// frame once every shard has closed the session. Sends arrive under
// several shards' locks, so the closed check and the channel close are
// ordered by outMu instead of by any one shard's.
func (s *session) send(id uint32, tag uint8, body []byte) {
	s.outMu.RLock()
	if !s.outClosed {
		s.out <- outFrame{id: id, tag: tag, body: body}
	}
	s.outMu.RUnlock()
}

// sendZC queues a zero-copy read response: the payload slice aliases
// sl's bytes, pinned here (under the shard lock, so the pin is ordered
// before any later mutation of the block) and unpinned by the
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
			// Run nothing after kill: the closes must be the session's
			// last step in every shard.
			releaseRequest(r)
		default:
			se.srv.dispatch(se, r)
			continue
		}
		break
	}
	se.kill()
	for _, sh := range se.srv.shards {
		sh.ask(func(sh *shard) { sh.closeSession(se) })
	}
}

// dispatch runs one frame, on the session's reader. Shard-local ops run
// in their file's (or name's) shard, under its lock, where the request
// is recycled unless its handler retained it; broadcast ops (control,
// set_policy) and the stats aggregation are orchestrated here, a shard
// at a time. Either way the frame has run everywhere it goes before the
// reader takes the session's next one, so each shard sees a session's
// frames in the order they arrived.
func (s *Server) dispatch(se *session, r *request) {
	switch r.op {
	case OpControl, OpSetPolicy:
		// All complete (every shard round-trip included) before
		// returning, so the request recycles here.
		s.broadcastCtl(se, r)
		releaseRequest(r)
	case OpStats:
		s.serveStats(se, r)
		releaseRequest(r)
	default:
		s.shardFor(r.op, r.body).ask(func(sh *shard) {
			if !sh.handle(se, r) {
				releaseRequest(r)
			}
		})
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
		if f, ok := fileOf(body); ok {
			return s.shards[uint32(f)%n]
		}
	case OpOpen, OpRemove, OpRelease:
		return s.shards[hashName(body)%n]
	case OpCreate:
		if m, ok := ParseCreateReq(body); ok {
			return s.shards[hashName(m.Name)%n]
		}
	}
	return s.shards[0]
}

// hashName is FNV-1a over the file name: stable across runs (replay and
// restart see the same placement), cheap, and well-mixed on short paths.
func hashName[S string | []byte](b S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}

func (se *session) writeLoop() {
	defer se.srv.running.Done()
	// Keep draining out even after a write error: the shards' sends and
	// the reader's tokens both depend on this writer consuming (a dead
	// connection just surrenders each frame's slot pin). Frames batch in
	// the frameWriter while more responses are already queued and flush
	// when the queue goes idle — a pipelined burst of reads becomes one
	// vectored write straight from the cache arena, a lone round-trip
	// still flushes immediately.
	w := newFrameWriter(se.conn)
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
