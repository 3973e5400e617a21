// Package client is the typed Go client for the acfcd wire protocol:
// one method per operation of the paper's user/kernel interface, the
// five cache-control calls of its fbehavior syscall among them. A Conn
// issues one request at a time (round-trip under a mutex); concurrency
// comes from opening several Conns, one per simulated application, which
// is exactly the server's session-per-owner model.
//
// Failures surface as typed sentinel errors where the caller's reaction
// differs — errors.Is(err, ErrRefused) for drain refusals a load
// generator counts apart, ErrRevoked for a dead session, ErrBadFrame
// for protocol-level damage — with the full status available via
// errors.As on *StatusError.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/acm"
	"repro/internal/fs"
	"repro/internal/server"
)

// Sentinel errors for the statuses callers branch on. They match via
// errors.Is against any error this package returns.
var (
	// ErrRefused: the server is draining for shutdown and refused the
	// request; acload counts these apart from real errors.
	ErrRefused = errors.New("acfcd: request refused: server draining")
	// ErrRevoked: the session's owner is unknown or already released —
	// the session is dead and must reconnect.
	ErrRevoked = errors.New("acfcd: session revoked")
	// ErrBadFrame: the peer rejected the frame as malformed, or this
	// client received a response it cannot parse.
	ErrBadFrame = errors.New("acfcd: bad frame")
)

// StatusError is a non-OK response. It satisfies errors.Is for the
// sentinel matching its status.
type StatusError struct {
	Status uint8
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("acfcd: %s: %s", server.StatusName(e.Status), e.Msg)
}

// Is maps statuses onto the package sentinels, so
// errors.Is(err, ErrRefused) works on any returned error.
func (e *StatusError) Is(target error) bool {
	switch target {
	case ErrRefused:
		return e.Status == server.StatusRefused
	case ErrRevoked:
		return e.Status == server.StatusRevoked
	case ErrBadFrame:
		return e.Status == server.StatusBadRequest
	}
	return false
}

// File describes an open file.
type File struct {
	ID   fs.FileID
	Size int // blocks, at open/create time
}

// Session is the one-method-per-op surface a driver of the interface
// needs — what a transcript replays through (Replay) and a load generator
// holds: *Conn speaks it to one server, *cluster.Client routes it over a
// member list, and tests put a stub behind it.
type Session interface {
	Open(name string) (File, error)
	Create(name string, d, sizeBlocks int) (File, error)
	Remove(name string) error
	Control(enable bool) error
	SetPriority(f fs.FileID, prio int) error
	GetPriority(f fs.FileID) (int, error)
	SetPolicy(prio int, pol acm.Policy) error
	GetPolicy(prio int) (acm.Policy, error)
	SetTempPri(f fs.FileID, startBlk, endBlk int32, prio int) error
	ReadInto(f fs.FileID, blk int32, off, size int, dst []byte) (hit bool, err error)
	ReadNoData(f fs.FileID, blk int32, off, size int) (hit bool, err error)
	Write(f fs.FileID, blk int32, off int, payload []byte) (hit bool, err error)
	Close() error
}

// Conn is one client session = one cache owner on the server.
type Conn struct {
	mu     sync.Mutex
	c      net.Conn
	bw     *bufio.Writer
	br     *bufio.Reader
	nextID uint32
	// scratch holds the encoded read or write request between calls, so
	// the access path allocates nothing.
	scratch []byte
}

// SplitAddr parses an address spec, "unix:/path" or "tcp:host:port", into
// the network and address that Dial and net.Listen take.
func SplitAddr(spec string) (network, addr string, err error) {
	network, addr, ok := strings.Cut(spec, ":")
	if !ok || (network != "unix" && network != "tcp") {
		return "", "", fmt.Errorf("bad address %q (want unix:/path or tcp:host:port)", spec)
	}
	return network, addr, nil
}

// dialTimeout bounds one Dial: a server that has not accepted by then
// counts as down.
const dialTimeout = 2 * time.Second

// Dial connects to an acfcd server ("unix", "/path" or "tcp", "addr").
func Dial(network, addr string) (*Conn, error) {
	c, err := net.DialTimeout(network, addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &Conn{
		c:  c,
		bw: bufio.NewWriterSize(c, server.MaxFrame),
		br: bufio.NewReaderSize(c, server.MaxFrame),
	}, nil
}

// Close ends the session; the server releases this owner's blocks.
func (c *Conn) Close() error { return c.c.Close() }

// start is the one framing path: it writes the request frame, reads the
// response's header, checks that it answers this request and turns a
// non-OK status into a *StatusError. On success the OK body — n bytes —
// is still on c.br for the caller to land where it wants it. The caller
// holds c.mu.
func (c *Conn) start(op uint8, body []byte) (n int, err error) {
	c.nextID++
	id := c.nextID
	if err := server.WriteFrame(c.bw, id, op, body); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	gotID, status, n, err := server.ReadFrameHeader(c.br)
	if err != nil {
		return 0, err
	}
	if gotID != id {
		return 0, fmt.Errorf("%w: response id %d for request %d", ErrBadFrame, gotID, id)
	}
	if status != server.StatusOK {
		msg := make([]byte, n)
		if _, err := io.ReadFull(c.br, msg); err != nil {
			return 0, err
		}
		return 0, &StatusError{Status: status, Msg: string(msg)}
	}
	return n, nil
}

// roundTrip issues one request and returns its OK response's body.
func (c *Conn) roundTrip(op uint8, body []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.start(op, body)
	if err != nil {
		return nil, err
	}
	resp := make([]byte, n)
	_, err = io.ReadFull(c.br, resp)
	return resp, err
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(server.OpPing, nil)
	return err
}

// file issues an open or a create and decodes the reply they share.
func (c *Conn) file(op uint8, body []byte) (File, error) {
	resp, err := c.roundTrip(op, body)
	if err != nil {
		return File{}, err
	}
	m, ok := server.ParseFileReply(resp)
	if !ok {
		return File{}, fmt.Errorf("%w: open/create: %d-byte response", ErrBadFrame, len(resp))
	}
	return File(m), nil
}

// Open resolves a file by name.
func (c *Conn) Open(name string) (File, error) {
	return c.file(server.OpOpen, []byte(name))
}

// Create creates a file of sizeBlocks blocks on disk d.
func (c *Conn) Create(name string, d, sizeBlocks int) (File, error) {
	return c.file(server.OpCreate, server.CreateReq{Disk: d, Size: sizeBlocks, Name: name}.Append(nil))
}

// Remove unlinks a file by name.
func (c *Conn) Remove(name string) error {
	_, err := c.roundTrip(server.OpRemove, []byte(name))
	return err
}

// Release has the server give up its copy of a file by name: its dirty
// blocks reach the store before the call returns, and none stays cached.
func (c *Conn) Release(name string) error {
	_, err := c.roundTrip(server.OpRelease, []byte(name))
	return err
}

// access issues a read or a write — the two ops that answer with the
// flags byte, then, for a read with data, the payload — and lands the
// payload, len(dst) bytes, in dst straight off the connection's buffer.
// The caller holds c.mu: body is c.scratch.
func (c *Conn) access(op uint8, body, dst []byte) (hit bool, err error) {
	n, err := c.start(op, body)
	if err != nil {
		return false, err
	}
	if n != 1+len(dst) {
		c.br.Discard(n)
		return false, fmt.Errorf("%w: op %d: %d-byte response, want %d", ErrBadFrame, op, n, 1+len(dst))
	}
	flags, err := c.br.ReadByte()
	if err != nil {
		return false, err
	}
	if _, err := io.ReadFull(c.br, dst); err != nil {
		return false, err
	}
	return flags&server.FlagHit != 0, nil
}

// read issues one read, encoded into the connection's scratch so the
// steady-state read path allocates nothing.
func (c *Conn) read(m server.ReadReq, dst []byte) (hit bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scratch = m.Append(c.scratch[:0])
	return c.access(server.OpRead, c.scratch, dst)
}

// Read reads size bytes at off within block blk. It returns the bytes
// and whether the access hit the cache.
func (c *Conn) Read(f fs.FileID, blk int32, off, size int) (data []byte, hit bool, err error) {
	data = make([]byte, size)
	hit, err = c.ReadInto(f, blk, off, size, data)
	return data, hit, err
}

// ReadInto reads size bytes at off within block blk into dst[:size],
// which the caller owns and reuses across calls: the steady-state
// read path allocates nothing on either side of the wire (the server
// serves hits scatter/gather from its cache arena, this client lands
// them in the caller's buffer). Requires len(dst) >= size.
func (c *Conn) ReadInto(f fs.FileID, blk int32, off, size int, dst []byte) (hit bool, err error) {
	if len(dst) < size {
		return false, fmt.Errorf("%w: read: %d-byte buffer for %d-byte read", ErrBadFrame, len(dst), size)
	}
	return c.read(server.ReadReq{File: f, Blk: blk, Off: off, Size: size}, dst[:size])
}

// ReadNoData performs the access without transferring the bytes back:
// the load generator's probe.
func (c *Conn) ReadNoData(f fs.FileID, blk int32, off, size int) (hit bool, err error) {
	return c.read(server.ReadReq{File: f, Blk: blk, Off: off, Size: size, Flags: server.ReadNoData}, nil)
}

// Write writes payload at off within block blk, growing the file as
// needed.
func (c *Conn) Write(f fs.FileID, blk int32, off int, payload []byte) (hit bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scratch = server.WriteReq{File: f, Blk: blk, Off: off, Data: payload}.Append(c.scratch[:0])
	return c.access(server.OpWrite, c.scratch, nil)
}

// Control enables (true) or disables (false) cache control — the
// manager session of the fbehavior interface.
func (c *Conn) Control(enable bool) error {
	body := []byte{0}
	if enable {
		body[0] = 1
	}
	_, err := c.roundTrip(server.OpControl, body)
	return err
}

// SetPriority sets the long-term cache priority of a file.
func (c *Conn) SetPriority(f fs.FileID, prio int) error {
	_, err := c.roundTrip(server.OpSetPriority, server.SetPriorityReq{File: f, Prio: prio}.Append(nil))
	return err
}

// GetPriority reads the long-term cache priority of a file.
func (c *Conn) GetPriority(f fs.FileID) (int, error) {
	resp, err := c.roundTrip(server.OpGetPriority, server.Word(f).Append(nil))
	if err != nil {
		return 0, err
	}
	prio, ok := server.ParseWord(resp)
	if !ok {
		return 0, fmt.Errorf("%w: get_priority: %d-byte response", ErrBadFrame, len(resp))
	}
	return int(prio), nil
}

// SetPolicy sets the replacement policy of a priority level.
func (c *Conn) SetPolicy(prio int, pol acm.Policy) error {
	_, err := c.roundTrip(server.OpSetPolicy, server.SetPolicyReq{Prio: prio, Policy: pol}.Append(nil))
	return err
}

// GetPolicy reads the replacement policy of a priority level.
func (c *Conn) GetPolicy(prio int) (acm.Policy, error) {
	resp, err := c.roundTrip(server.OpGetPolicy, server.Word(prio).Append(nil))
	if err != nil {
		return 0, err
	}
	if len(resp) != 1 {
		return 0, fmt.Errorf("%w: get_policy: %d-byte response", ErrBadFrame, len(resp))
	}
	return acm.Policy(resp[0]), nil
}

// SetTempPri assigns a temporary priority to cached blocks of f in
// [startBlk, endBlk].
func (c *Conn) SetTempPri(f fs.FileID, startBlk, endBlk int32, prio int) error {
	_, err := c.roundTrip(server.OpSetTempPri, server.SetTempPriReq{File: f, Start: startBlk, End: endBlk, Prio: prio}.Append(nil))
	return err
}

// Stats fetches this session's counters and the kernel snapshot.
func (c *Conn) Stats() (server.StatsReply, error) {
	resp, err := c.roundTrip(server.OpStats, nil)
	if err != nil {
		return server.StatsReply{}, err
	}
	var sr server.StatsReply
	if err := json.Unmarshal(resp, &sr); err != nil {
		return server.StatsReply{}, err
	}
	return sr, nil
}
