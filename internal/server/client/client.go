// Package client is the typed Go client for the acfcd wire protocol:
// one method per operation of the paper's user/kernel interface, plus a
// multiplexed Fbehavior entry point mirroring the paper's syscall. A Conn
// issues one request at a time (round-trip under a mutex); concurrency
// comes from opening several Conns, one per simulated application, which
// is exactly the server's session-per-owner model.
//
// Failures surface as typed sentinel errors where the caller's reaction
// differs — errors.Is(err, ErrRefused) for drain refusals a load
// generator retries elsewhere, ErrRevoked for a dead session, ErrBadFrame
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
	"sync"

	"repro/internal/acm"
	"repro/internal/fs"
	"repro/internal/server"
)

// Sentinel errors for the statuses callers branch on. They match via
// errors.Is against any error this package returns.
var (
	// ErrRefused: the server is draining for shutdown and refused the
	// request. Load generators count these apart from real errors and may
	// retry on a reconnect.
	ErrRefused = errors.New("acfcd: request refused: server draining")
	// ErrRevoked: the session's owner is unknown or already released —
	// the session is dead and must reconnect.
	ErrRevoked = errors.New("acfcd: session revoked")
	// ErrBadFrame: the peer rejected the frame as malformed, or this
	// client received a response it cannot parse.
	ErrBadFrame = errors.New("acfcd: bad frame")
	// ErrUnknownPolicy: set_alloc named an allocation policy the
	// server's registry does not know.
	ErrUnknownPolicy = errors.New("acfcd: unknown allocation policy")
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
	case ErrUnknownPolicy:
		return e.Status == server.StatusUnknownPolicy
	}
	return false
}

// File describes an open file.
type File struct {
	ID   fs.FileID
	Size int // blocks, at open/create time
}

// Conn is one client session = one cache owner on the server.
type Conn struct {
	mu     sync.Mutex
	c      net.Conn
	bw     *bufio.Writer
	br     *bufio.Reader
	nextID uint32
	// scratch encodes a read request (9-byte frame header + 13-byte
	// body) in one piece, so ReadInto writes no per-call buffers.
	scratch [22]byte
}

// Dial connects to an acfcd server ("unix", "/path" or "tcp", "addr").
func Dial(network, addr string) (*Conn, error) {
	c, err := net.Dial(network, addr)
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

// roundTrip issues one request and waits for its response.
func (c *Conn) roundTrip(op uint8, body []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	if err := server.WriteFrame(c.bw, id, op, body); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	gotID, status, resp, err := server.ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("%w: response id %d for request %d", ErrBadFrame, gotID, id)
	}
	if status != server.StatusOK {
		return nil, &StatusError{Status: status, Msg: string(resp)}
	}
	return resp, nil
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(server.OpPing, nil)
	return err
}

// Open resolves a file by name.
func (c *Conn) Open(name string) (File, error) {
	resp, err := c.roundTrip(server.OpOpen, []byte(name))
	if err != nil {
		return File{}, err
	}
	if len(resp) != 8 {
		return File{}, fmt.Errorf("%w: open: %d-byte response", ErrBadFrame, len(resp))
	}
	return File{ID: fs.FileID(be32(resp[0:])), Size: int(be32(resp[4:]))}, nil
}

// Create creates a file of sizeBlocks blocks on disk d.
func (c *Conn) Create(name string, d, sizeBlocks int) (File, error) {
	body := make([]byte, 5+len(name))
	body[0] = uint8(d)
	put32(body[1:], uint32(sizeBlocks))
	copy(body[5:], name)
	resp, err := c.roundTrip(server.OpCreate, body)
	if err != nil {
		return File{}, err
	}
	if len(resp) != 8 {
		return File{}, fmt.Errorf("%w: create: %d-byte response", ErrBadFrame, len(resp))
	}
	return File{ID: fs.FileID(be32(resp[0:])), Size: int(be32(resp[4:]))}, nil
}

// Remove unlinks a file by name.
func (c *Conn) Remove(name string) error {
	_, err := c.roundTrip(server.OpRemove, []byte(name))
	return err
}

func readBody(f fs.FileID, blk int32, off, size int, flags uint8) []byte {
	body := make([]byte, 13)
	put32(body[0:], uint32(f))
	put32(body[4:], uint32(blk))
	put16(body[8:], uint16(off))
	put16(body[10:], uint16(size))
	body[12] = flags
	return body
}

// Read reads size bytes at off within block blk. It returns the bytes
// and whether the access hit the cache.
func (c *Conn) Read(f fs.FileID, blk int32, off, size int) (data []byte, hit bool, err error) {
	resp, err := c.roundTrip(server.OpRead, readBody(f, blk, off, size, 0))
	if err != nil {
		return nil, false, err
	}
	if len(resp) != 1+size {
		return nil, false, fmt.Errorf("%w: read: %d-byte response, want %d", ErrBadFrame, len(resp), 1+size)
	}
	return resp[1:], resp[0]&server.FlagHit != 0, nil
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	b := c.scratch[:]
	put32(b[0:], uint32(server.FrameOverhead+13))
	put32(b[4:], id)
	b[8] = server.OpRead
	put32(b[9:], uint32(f))
	put32(b[13:], uint32(blk))
	put16(b[17:], uint16(off))
	put16(b[19:], uint16(size))
	b[21] = 0
	if _, err := c.bw.Write(b); err != nil {
		return false, err
	}
	if err := c.bw.Flush(); err != nil {
		return false, err
	}
	gotID, status, n, err := server.ReadFrameHeader(c.br)
	if err != nil {
		return false, err
	}
	if gotID != id {
		return false, fmt.Errorf("%w: response id %d for request %d", ErrBadFrame, gotID, id)
	}
	if status != server.StatusOK {
		msg := make([]byte, n)
		if _, err := io.ReadFull(c.br, msg); err != nil {
			return false, err
		}
		return false, &StatusError{Status: status, Msg: string(msg)}
	}
	if n != 1+size {
		c.br.Discard(n)
		return false, fmt.Errorf("%w: read: %d-byte response, want %d", ErrBadFrame, n, 1+size)
	}
	flags, err := c.br.ReadByte()
	if err != nil {
		return false, err
	}
	if _, err := io.ReadFull(c.br, dst[:size]); err != nil {
		return false, err
	}
	return flags&server.FlagHit != 0, nil
}

// ReadNoData performs the access without transferring the bytes back:
// the load generator's probe.
func (c *Conn) ReadNoData(f fs.FileID, blk int32, off, size int) (hit bool, err error) {
	resp, err := c.roundTrip(server.OpRead, readBody(f, blk, off, size, server.ReadNoData))
	if err != nil {
		return false, err
	}
	if len(resp) != 1 {
		return false, fmt.Errorf("%w: read: %d-byte response, want 1", ErrBadFrame, len(resp))
	}
	return resp[0]&server.FlagHit != 0, nil
}

// Write writes payload at off within block blk, growing the file as
// needed.
func (c *Conn) Write(f fs.FileID, blk int32, off int, payload []byte) (hit bool, err error) {
	body := make([]byte, 12+len(payload))
	put32(body[0:], uint32(f))
	put32(body[4:], uint32(blk))
	put16(body[8:], uint16(off))
	put16(body[10:], uint16(len(payload)))
	copy(body[12:], payload)
	resp, err := c.roundTrip(server.OpWrite, body)
	if err != nil {
		return false, err
	}
	if len(resp) != 1 {
		return false, fmt.Errorf("%w: write: %d-byte response", ErrBadFrame, len(resp))
	}
	return resp[0]&server.FlagHit != 0, nil
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

// FbOp selects the operation of a multiplexed Fbehavior call — the five
// cache-control calls of the paper's fbehavior syscall.
type FbOp uint8

const (
	FbSetPriority FbOp = iota
	FbGetPriority
	FbSetPolicy
	FbGetPolicy
	FbSetTempPri
	FbSetAlloc
	FbGetAlloc
)

// FbArgs are the arguments of a multiplexed Fbehavior call; each op
// reads the fields it needs (File for the per-file calls, Prio for all
// priority-scoped calls, Policy for FbSetPolicy, Start/End for
// FbSetTempPri, Alloc for FbSetAlloc).
type FbArgs struct {
	File   fs.FileID
	Prio   int
	Policy acm.Policy
	Start  int32
	End    int32
	Alloc  string
}

// FbResult is the result of a multiplexed Fbehavior call: Prio for
// FbGetPriority, Policy for FbGetPolicy, Alloc (the canonical policy
// name) for FbSetAlloc/FbGetAlloc, zero otherwise.
type FbResult struct {
	Prio   int
	Policy acm.Policy
	Alloc  string
}

// Fbehavior is the multiplexed form of the paper's fbehavior syscall:
// one entry point, the op selecting the call. The typed wrappers
// (SetPriority, GetPriority, SetPolicy, GetPolicy, SetTempPri) all route
// through it.
func (c *Conn) Fbehavior(op FbOp, a FbArgs) (FbResult, error) {
	switch op {
	case FbSetPriority:
		body := make([]byte, 8)
		put32(body[0:], uint32(a.File))
		put32(body[4:], uint32(int32(a.Prio)))
		_, err := c.roundTrip(server.OpSetPriority, body)
		return FbResult{}, err
	case FbGetPriority:
		body := make([]byte, 4)
		put32(body, uint32(a.File))
		resp, err := c.roundTrip(server.OpGetPriority, body)
		if err != nil {
			return FbResult{}, err
		}
		if len(resp) != 4 {
			return FbResult{}, fmt.Errorf("%w: get_priority: %d-byte response", ErrBadFrame, len(resp))
		}
		return FbResult{Prio: int(int32(be32(resp)))}, nil
	case FbSetPolicy:
		body := make([]byte, 5)
		put32(body[0:], uint32(int32(a.Prio)))
		body[4] = uint8(a.Policy)
		_, err := c.roundTrip(server.OpSetPolicy, body)
		return FbResult{}, err
	case FbGetPolicy:
		body := make([]byte, 4)
		put32(body, uint32(int32(a.Prio)))
		resp, err := c.roundTrip(server.OpGetPolicy, body)
		if err != nil {
			return FbResult{}, err
		}
		if len(resp) != 1 {
			return FbResult{}, fmt.Errorf("%w: get_policy: %d-byte response", ErrBadFrame, len(resp))
		}
		return FbResult{Policy: acm.Policy(resp[0])}, nil
	case FbSetTempPri:
		body := make([]byte, 16)
		put32(body[0:], uint32(a.File))
		put32(body[4:], uint32(a.Start))
		put32(body[8:], uint32(a.End))
		put32(body[12:], uint32(int32(a.Prio)))
		_, err := c.roundTrip(server.OpSetTempPri, body)
		return FbResult{}, err
	case FbSetAlloc:
		resp, err := c.roundTrip(server.OpSetAlloc, []byte(a.Alloc))
		if err != nil {
			return FbResult{}, err
		}
		return FbResult{Alloc: string(resp)}, nil
	case FbGetAlloc:
		resp, err := c.roundTrip(server.OpGetAlloc, nil)
		if err != nil {
			return FbResult{}, err
		}
		if len(resp) == 0 {
			return FbResult{}, fmt.Errorf("%w: get_alloc: empty response", ErrBadFrame)
		}
		return FbResult{Alloc: string(resp)}, nil
	}
	return FbResult{}, fmt.Errorf("%w: unknown fbehavior op %d", ErrBadFrame, op)
}

// SetPriority sets the long-term cache priority of a file.
func (c *Conn) SetPriority(f fs.FileID, prio int) error {
	_, err := c.Fbehavior(FbSetPriority, FbArgs{File: f, Prio: prio})
	return err
}

// GetPriority reads the long-term cache priority of a file.
func (c *Conn) GetPriority(f fs.FileID) (int, error) {
	res, err := c.Fbehavior(FbGetPriority, FbArgs{File: f})
	return res.Prio, err
}

// SetPolicy sets the replacement policy of a priority level.
func (c *Conn) SetPolicy(prio int, pol acm.Policy) error {
	_, err := c.Fbehavior(FbSetPolicy, FbArgs{Prio: prio, Policy: pol})
	return err
}

// GetPolicy reads the replacement policy of a priority level.
func (c *Conn) GetPolicy(prio int) (acm.Policy, error) {
	res, err := c.Fbehavior(FbGetPolicy, FbArgs{Prio: prio})
	return res.Policy, err
}

// SetTempPri assigns a temporary priority to cached blocks of f in
// [startBlk, endBlk].
func (c *Conn) SetTempPri(f fs.FileID, startBlk, endBlk int32, prio int) error {
	_, err := c.Fbehavior(FbSetTempPri, FbArgs{File: f, Start: startBlk, End: endBlk, Prio: prio})
	return err
}

// SetAlloc installs the named kernel allocation policy in every shard
// (cache.ParseAlloc names: "global-lru", "lru-sp", "arc", ...). A name
// the server's registry does not know fails with an error matching
// errors.Is(err, ErrUnknownPolicy), and no shard is touched.
func (c *Conn) SetAlloc(name string) error {
	_, err := c.Fbehavior(FbSetAlloc, FbArgs{Alloc: name})
	return err
}

// GetAlloc reports the canonical name of the active allocation policy
// (shard 0's — shards only diverge under the adaptive policy switcher).
func (c *Conn) GetAlloc() (string, error) {
	res, err := c.Fbehavior(FbGetAlloc, FbArgs{})
	return res.Alloc, err
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

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
func put16(b []byte, v uint16) {
	b[0], b[1] = byte(v>>8), byte(v)
}
