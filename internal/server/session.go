package server

import (
	"bufio"
	"net"
	"sync"
	"time"

	"repro/internal/cache"
)

// request is one decoded frame from a session. It lives on the reader's
// stack for as long as its handler runs, and body is borrowed from the
// session's read buffer for that long: a handler that needs a field
// later copies it out (handleRead's readCtx), and core.Live.Write copies
// a payload it must keep.
type request struct {
	id   uint32
	op   uint8
	body []byte
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

	// outMu orders late sends (a fill completing after the session
	// closed in its shard) against the reader's close of out once every
	// shard has closed the session. It is never held while a shard lock
	// is taken.
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

// readerSize holds two whole frames: whole-block writes then take one
// read per three frames, not one per frame (TestReaderSizeReads).
const readerSize = 2 * MaxFrame

func (se *session) readLoop() {
	defer se.srv.running.Done()
	br := bufio.NewReaderSize(se.conn, readerSize)
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
		if br.Buffered() < n {
			se.conn.SetReadDeadline(time.Now().Add(idle))
		}
		// The body stays in br, valid until the next read of it: dispatch
		// returns only once the frame's handler has.
		body, err := br.Peek(n)
		if err != nil {
			break
		}
		select {
		case <-se.tokens:
		case <-se.die:
		}
		select {
		case <-se.die:
			// Run nothing after kill: the closes must be the session's
			// last step in every shard.
		default:
			se.srv.dispatch(se, &request{id: id, op: op, body: body})
			br.Discard(n)
			continue
		}
		break
	}
	se.kill()
	for _, sh := range se.srv.shards {
		sh.ask(func(sh *shard) { sh.closeSession(se) })
	}
	// Every shard has closed the session, so only a fill completing late
	// can still send; outMu orders it against this close, which ends the
	// writer.
	se.outMu.Lock()
	se.outClosed = true
	close(se.out)
	se.outMu.Unlock()
}

// dispatch runs one frame, on the session's reader. Shard-local ops run
// in their file's (or name's) shard, under its lock; broadcast ops
// (control, set_policy) and the stats aggregation are orchestrated here,
// a shard at a time. Either way the frame has run everywhere it goes
// before dispatch returns and the reader takes the session's next one,
// so each shard sees a session's frames in the order they arrived.
func (s *Server) dispatch(se *session, r *request) {
	switch r.op {
	case OpControl, OpSetPolicy:
		s.broadcastCtl(se, r)
	case OpStats:
		s.serveStats(se, r)
	default:
		s.shardFor(r.op, r.body).ask(func(sh *shard) { sh.handle(se, r) })
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
