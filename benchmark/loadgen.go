package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opCreate
	opOpen
	opRemove
	opControl
	opSetPriority
	opSetPolicy
	opSetTempPri
)

// wireOp maps an op kind to its opcode on the wire.
var wireOp = [...]uint8{
	opRead:        server.OpRead,
	opWrite:       server.OpWrite,
	opCreate:      server.OpCreate,
	opOpen:        server.OpOpen,
	opRemove:      server.OpRemove,
	opControl:     server.OpControl,
	opSetPriority: server.OpSetPriority,
	opSetPolicy:   server.OpSetPolicy,
	opSetTempPri:  server.OpSetTempPri,
}

// op is one generated request. file is the workload's own file index,
// which a sink binds to the target's id at create or open; block
// contents are a function of that index, never of the target's id.
type op struct {
	kind opKind
	file int
	blk  int32
	off  int
	size int
	// gen is the generation a write writes, or the one a whole-block
	// read expects in mutSeg (0: any). mutSeg is the one segment of the
	// block that 1 KB writes rewrite, -1 when nothing rewrites it.
	gen    uint32
	mutSeg int
	// loose marks app_mix content: transcript offsets and sizes, bytes
	// that are zero or generation 1.
	loose bool

	name   string // create, open, remove
	blocks int    // create
	disk   int    // create
	prio   int
	policy uint8
	start  int32
	end    int32
	enable bool

	// due is the intended send time of an open-loop op, in ns from the
	// window's start; -1 sends as soon as the window of outstanding
	// requests allows. rung is the rate rung the op is accounted to, -1
	// for none.
	due  int64
	rung int
}

// sink is where a workload's op stream goes: a connection to the server
// (the measured runs), a bare core.Live (the isolated layer replay) or,
// in the determinism test, a hash. Reads and writes may complete after do
// returns; every other op has completed when it does.
type sink interface {
	do(o *op) error
	// fileID is the id the target gave file at create or open.
	fileID(file int) uint32
	// shards is the number of cache partitions files are spread over.
	shards() int
}

// payload fills dst with the bytes write op o carries.
func payload(dst []byte, o *op) []byte {
	dst = dst[:o.size]
	switch {
	case o.loose:
		fillRange(dst, o.file, o.blk, o.off)
	case o.size == blockBytes:
		fillBlock(dst, o.file, o.blk, o.gen)
	default:
		fillSeg(dst, o.file, o.blk, o.off/segBytes, o.gen)
	}
	return dst
}

// reqSpan is one traced request as its connection saw it. Times are ns
// since the process's epoch; Due equals Sent in a closed loop.
type reqSpan struct {
	Conn int    `json:"conn"`
	ID   uint32 `json:"id"`
	Op   uint8  `json:"op"`
	File uint32 `json:"file"`
	Blk  int32  `json:"blk"`
	Due  int64  `json:"due"`
	Sent int64  `json:"sent"`
	Recv int64  `json:"recv"`
	Hit  bool   `json:"hit"`
	OK   bool   `json:"ok"`
}

// rungStats is what one open-loop rate rung saw on one connection.
type rungStats struct {
	sent, done, failed int64
	lat                hist // from the intended send time
	late               hist // actual minus intended send time
	backlogMax         int
}

// connStats is what one connection saw in one window. The receiver
// goroutine owns every field except the rungs' sent, late and
// backlogMax, which the sender owns; the controller reads them once the
// window has drained.
type connStats struct {
	done, failed int64
	hits, misses int64 // reads and writes, by the response's hit flag
	bytes        int64
	firstFailure string
	// slices are the latencies of every op, from the intended send time
	// when there is one, by the slice of the window in which the request
	// was sent or due: the end-to-end latency is a median over slices,
	// which one stall of the machine cannot move.
	slices  []hist
	hitRTT  hist // reads and writes that hit, send to receive
	missRTT hist
	rungs   [3]rungStats
	spans   []reqSpan
}

// lat is the latencies of the whole window.
func (st *connStats) lat() *hist {
	var all hist
	for i := range st.slices {
		all.merge(&st.slices[i])
	}
	return &all
}

func (st *connStats) merge(o *connStats) {
	st.done += o.done
	st.failed += o.failed
	st.hits += o.hits
	st.misses += o.misses
	st.bytes += o.bytes
	if st.firstFailure == "" {
		st.firstFailure = o.firstFailure
	}
	for len(st.slices) < len(o.slices) {
		st.slices = append(st.slices, hist{})
	}
	for i := range o.slices {
		st.slices[i].merge(&o.slices[i])
	}
	st.hitRTT.merge(&o.hitRTT)
	st.missRTT.merge(&o.missRTT)
	for i := range st.rungs {
		r, or := &st.rungs[i], &o.rungs[i]
		r.sent += or.sent
		r.done += or.done
		r.failed += or.failed
		r.lat.merge(&or.lat)
		r.late.merge(&or.late)
		r.backlogMax = max(r.backlogMax, or.backlogMax)
	}
	st.spans = append(st.spans, o.spans...)
}

// sliceDur is the length of the slices a window's latencies are also
// kept by.
const sliceDur = 200 * time.Millisecond

// slot remembers an outstanding request until its response arrives. A
// request's id on the wire is its slot's index, so an id is never shared
// by two outstanding requests however far responses overtake each other.
type slot struct {
	o      op
	seq    uint32 // the request's ordinal on its connection
	wire   uint32 // the server's file id, for the span
	sent   int64
	base   int64 // latency is timed from here: due time, or sent
	traced bool
	ctl    bool // a barrier op: the response goes to the caller, not only to the stats
}

type ctlResp struct {
	status uint8
	body   []byte
}

// wconn is one connection to the server: a sender (the goroutine that
// calls do) and a receiver goroutine, with at most depth requests
// outstanding. The sender takes a free slot per request and the receiver
// returns it with the response, which is also what orders the sender's
// write of a slot before the receiver's read of it.
type wconn struct {
	idx     int
	nc      net.Conn
	bw      *bufio.Writer
	br      *bufio.Reader
	depth   int
	free    chan uint32 // indexes of the slots no request holds
	slots   []slot      // depth for pipelined requests, one more for a barrier's
	next    uint32
	files   map[int]uint32
	ctl     chan ctlResp
	scratch []byte
	epoch   time.Time
	alarm   *alarm // paces an open loop

	// Set by the controller between windows, while nothing is
	// outstanding.
	winStart int64
	sample   uint32 // trace one request in sample; 0 traces none
	win      atomic.Pointer[connStats]

	dead chan struct{} // closed by the receiver when the connection ends
	rerr error         // why; set before dead closes
}

func dialConn(idx int, addr string, depth int, epoch time.Time) (*wconn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	al, err := newAlarm()
	if err != nil {
		nc.Close()
		return nil, err
	}
	c := &wconn{
		idx:     idx,
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		br:      bufio.NewReaderSize(nc, 64<<10),
		depth:   depth,
		free:    make(chan uint32, depth),
		slots:   make([]slot, depth+1),
		files:   make(map[int]uint32),
		ctl:     make(chan ctlResp, 1),
		scratch: make([]byte, server.MaxFrame),
		epoch:   epoch,
		alarm:   al,
		dead:    make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		c.free <- uint32(i)
	}
	c.win.Store(new(connStats))
	go c.receive()
	return c, nil
}

// close ends the connection and waits for the receiver to exit.
func (c *wconn) close() {
	c.nc.Close()
	c.alarm.close()
	<-c.dead
}

func (c *wconn) now() int64 { return int64(time.Since(c.epoch)) }

func (c *wconn) fileID(file int) uint32 { return c.files[file] }
func (c *wconn) shards() int            { return nShards }

// acquire takes a free slot, flushing what is buffered before it
// blocks: a full window is the only reason to wait, and the responses
// that free it cannot come for requests still sitting in the buffer.
func (c *wconn) acquire() (uint32, error) {
	select {
	case i := <-c.free:
		return i, nil
	default:
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	select {
	case i := <-c.free:
		return i, nil
	case <-c.dead:
		return 0, c.rerr
	}
}

// drain waits until nothing is outstanding, by taking every slot;
// release hands them back.
func (c *wconn) drain() error {
	for i := 0; i < c.depth; i++ {
		if _, err := c.acquire(); err != nil {
			return err
		}
	}
	return nil
}

func (c *wconn) release() {
	for i := 0; i < c.depth; i++ {
		c.free <- uint32(i)
	}
}

// quiesce ends a window on this connection: everything sent has been
// answered when it returns.
func (c *wconn) quiesce() error {
	if err := c.drain(); err != nil {
		return err
	}
	c.release()
	return nil
}

func (c *wconn) do(o *op) error {
	if o.kind == opRead || o.kind == opWrite {
		return c.send(o, false)
	}
	// A barrier: everything before it completes first, and it completes
	// before anything after it is sent.
	if err := c.drain(); err != nil {
		return err
	}
	defer c.release()
	if err := c.send(o, true); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	var resp ctlResp
	select {
	case resp = <-c.ctl:
	case <-c.dead:
		return c.rerr
	}
	if resp.status != server.StatusOK {
		return nil // counted as a failed operation by the receiver
	}
	switch o.kind {
	case opCreate, opOpen:
		if len(resp.body) != 8 {
			return fmt.Errorf("%s %q: %d-byte response", o.kind, o.name, len(resp.body))
		}
		c.files[o.file] = binary.BigEndian.Uint32(resp.body)
	case opRemove:
		delete(c.files, o.file)
	}
	return nil
}

// send writes one request frame. A pipelined op (ctl false) takes a
// slot first and, in an open loop, waits for its intended send time; a
// barrier's caller holds every slot and the request rides the spare.
func (c *wconn) send(o *op, ctl bool) error {
	id := uint32(c.depth)
	if !ctl {
		if o.due >= 0 {
			if due := c.winStart + o.due; due > c.now() {
				if err := c.bw.Flush(); err != nil {
					return err
				}
				if err := c.alarm.sleep(time.Duration(due - c.now())); err != nil {
					return err
				}
			}
		}
		var err error
		if id, err = c.acquire(); err != nil {
			return err
		}
	}
	s := &c.slots[id]
	s.o = *o
	s.seq = c.next
	c.next++
	s.ctl = ctl
	s.wire = c.files[o.file]
	s.traced = c.sample > 0 && s.seq%c.sample == 0
	s.sent = c.now()
	s.base = s.sent
	if o.due >= 0 {
		s.base = c.winStart + o.due
	}
	if o.rung >= 0 {
		r := &c.win.Load().rungs[o.rung]
		r.sent++
		r.late.add(s.sent - s.base)
		r.backlogMax = max(r.backlogMax, c.depth-len(c.free))
	}
	return server.WriteFrame(c.bw, id, wireOp[o.kind], c.encode(o, s.wire))
}

// encode builds o's request body in the connection's scratch buffer.
func (c *wconn) encode(o *op, wire uint32) []byte {
	b := c.scratch
	be := binary.BigEndian
	switch o.kind {
	case opRead:
		be.PutUint32(b[0:], wire)
		be.PutUint32(b[4:], uint32(o.blk))
		be.PutUint16(b[8:], uint16(o.off))
		be.PutUint16(b[10:], uint16(o.size))
		b[12] = 0
		return b[:13]
	case opWrite:
		be.PutUint32(b[0:], wire)
		be.PutUint32(b[4:], uint32(o.blk))
		be.PutUint16(b[8:], uint16(o.off))
		be.PutUint16(b[10:], uint16(o.size))
		payload(b[12:], o)
		return b[:12+o.size]
	case opCreate:
		b[0] = uint8(o.disk)
		be.PutUint32(b[1:], uint32(o.blocks))
		return b[:5+copy(b[5:], o.name)]
	case opOpen, opRemove:
		return b[:copy(b, o.name)]
	case opControl:
		b[0] = 0
		if o.enable {
			b[0] = 1
		}
		return b[:1]
	case opSetPriority:
		be.PutUint32(b[0:], wire)
		be.PutUint32(b[4:], uint32(int32(o.prio)))
		return b[:8]
	case opSetPolicy:
		be.PutUint32(b[0:], uint32(int32(o.prio)))
		b[4] = o.policy
		return b[:5]
	case opSetTempPri:
		be.PutUint32(b[0:], wire)
		be.PutUint32(b[4:], uint32(o.start))
		be.PutUint32(b[8:], uint32(o.end))
		be.PutUint32(b[12:], uint32(int32(o.prio)))
		return b[:16]
	}
	panic("benchmark: unknown op kind")
}

func (k opKind) String() string {
	return [...]string{"read", "write", "create", "open", "remove", "control", "set_priority", "set_policy", "set_temppri"}[k]
}

// receive reads responses until the connection ends, checks each one
// and frees its slot.
func (c *wconn) receive() {
	defer close(c.dead)
	body := make([]byte, server.MaxFrame)
	for {
		id, status, n, err := server.ReadFrameHeader(c.br)
		if err == nil {
			_, err = io.ReadFull(c.br, body[:n])
		}
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				err = errors.New("connection closed")
			}
			c.rerr = fmt.Errorf("connection %d: %w", c.idx, err)
			return
		}
		if id > uint32(c.depth) {
			c.rerr = fmt.Errorf("connection %d: response to request %d, which was never sent", c.idx, id)
			return
		}
		s := &c.slots[id]
		c.account(s, status, body[:n], c.now())
		if s.ctl {
			c.ctl <- ctlResp{status, append([]byte(nil), body[:n]...)}
		} else {
			c.free <- id
		}
	}
}

// account checks one response against what was asked and files it in
// the current window's statistics.
func (c *wconn) account(s *slot, status uint8, body []byte, now int64) {
	st := c.win.Load()
	o := &s.o
	ok := status == server.StatusOK
	hit := false
	switch o.kind {
	case opRead:
		ok = ok && len(body) == 1+o.size
		if ok {
			hit = body[0]&server.FlagHit != 0
			full := s.seq%64 == 0
			if o.loose {
				ok = checkRange(body[1:], o.file, o.blk, o.off, full)
			} else {
				ok = checkBlock(body[1:], o.file, o.blk, o.mutSeg, o.gen, full)
			}
			st.bytes += int64(o.size)
		}
	case opWrite:
		ok = ok && len(body) == 1
		if ok {
			hit = body[0]&server.FlagHit != 0
			st.bytes += int64(o.size)
		}
	}
	st.done++
	if !ok {
		st.failed++
		if st.firstFailure == "" {
			what := "payload mismatch"
			if status != server.StatusOK {
				what = fmt.Sprintf("status %s: %s", server.StatusName(status), body)
			}
			st.firstFailure = fmt.Sprintf("conn %d %s file %d (%q) blk %d: %s", c.idx, o.kind, o.file, o.name, o.blk, what)
		}
	}
	k := max(0, int((s.base-c.winStart)/int64(sliceDur)))
	for len(st.slices) <= k {
		st.slices = append(st.slices, hist{})
	}
	st.slices[k].add(now - s.base)
	if o.kind == opRead || o.kind == opWrite {
		if hit {
			st.hits++
			st.hitRTT.add(now - s.sent)
		} else {
			st.misses++
			st.missRTT.add(now - s.sent)
		}
	}
	if o.rung >= 0 {
		r := &st.rungs[o.rung]
		r.done++
		if !ok {
			r.failed++
		}
		r.lat.add(now - s.base)
	}
	if s.traced {
		st.spans = append(st.spans, reqSpan{
			Conn: c.idx, ID: s.seq, Op: wireOp[o.kind], File: s.wire, Blk: o.blk,
			Due: s.base, Sent: s.sent, Recv: now, Hit: hit, OK: ok,
		})
	}
}
