// Package server implements acfcd, a concurrent application-controlled
// cache server: the paper's user/kernel interface — open, read, write,
// close, plus the five fbehavior cache-control calls — exposed to real
// client processes over a socket, with N Live kernel shards, each owned
// by whoever holds its lock, and files hashed to shards at open time.
//
// Shard routing. Most ops are shard-local: open, create, remove and
// release route by a stable hash of the file name; read, write, close, set_priority,
// get_priority and set_temppri route by the file id (shard i of n numbers
// its files i+n, i+2n, …, so id mod n is the shard). ping and get_policy anchor at
// shard 0. Two ops broadcast — control and set_policy target per-manager
// state that exists in every shard, so the session's reader runs them in
// each shard before the next frame — and stats aggregates: the reply
// folds every shard's counters (plus a per-shard breakdown when
// shards > 1). Shutdown drain and the /metrics snapshot are likewise
// all-shard operations, taking each shard's lock in turn.
//
// Wire protocol. Every message is a length-prefixed binary frame,
// big-endian throughout:
//
//	u32 length   (covers id + tag + body = 5 + len(body))
//	u32 id       (request id; the response echoes it)
//	u8  tag      (request: opcode; response: status)
//	...body
//
// Requests on one connection may be pipelined; responses carry the
// request id and may complete out of order (a cache hit overtakes an
// earlier miss waiting on disk). Per-op bodies:
//
//	op            request body                          OK response body
//	ping          -                                     -
//	open          name                                  file u32 | size u32
//	create        disk u8 | size u32 | name             file u32 | size u32
//	read          file u32 | blk u32 | off u16 |        flags u8 (bit0 hit) | data
//	              size u16 | flags u8 (bit0 nodata)
//	write         file u32 | blk u32 | off u16 |        flags u8 (bit0 hit)
//	              len u16 | data
//	close         file u32                              -
//	remove        name                                  -
//	release       name                                  -
//	control       enable u8                             -
//	set_priority  file u32 | prio i32                   -
//	get_priority  file u32                              prio i32
//	set_policy    prio i32 | policy u8                  policy u8
//	get_policy    prio i32                              policy u8
//	set_temppri   file u32 | start u32 | end u32 |      -
//	              prio i32
//	stats         -                                     JSON (StatsReply)
//
// Non-OK responses carry the error message as the body.
//
// This table is the one prose description of the bodies; the message
// types below (ReadReq … FileReply, Word) are its only implementation.
// The server's handlers and routing, the typed client and the tests'
// hand encoders all append and parse through them, and nothing outside
// this file indexes into a body. (golden_test.go keeps an encoding of its
// own on purpose: it is the pin these types are checked against.)
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/acm"
	"repro/internal/fs"
)

// Opcodes (request tag). 15 and 16 are retired — they were set_alloc and
// get_alloc, a live swap of the allocation policy, which is now fixed for
// the daemon's life — and must never be reused: an old client's frame
// gets bad_request, never another op's meaning.
const (
	OpPing uint8 = 1 + iota
	OpOpen
	OpCreate
	OpRead
	OpWrite
	OpClose
	OpRemove
	OpControl
	OpSetPriority
	OpGetPriority
	OpSetPolicy
	OpGetPolicy
	OpSetTempPri
	OpStats
	OpRelease uint8 = 17 // drop a moved name's blocks, dirty ones written back first
)

// Statuses (response tag).
const (
	StatusOK uint8 = iota
	StatusBadRequest
	StatusNotFound
	StatusExists
	StatusLimit     // a kernel resource limit (managers, levels, file records, disk space)
	StatusNoControl // fbehavior call without EnableControl, or no such owner
	StatusRefused   // server is draining for shutdown
	StatusIO
	StatusRange
	StatusRevoked // the session's owner is unknown or already released
)

// StatusName names a status for reports.
func StatusName(st uint8) string {
	switch st {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad_request"
	case StatusNotFound:
		return "not_found"
	case StatusExists:
		return "exists"
	case StatusLimit:
		return "limit"
	case StatusNoControl:
		return "no_control"
	case StatusRefused:
		return "refused"
	case StatusIO:
		return "io"
	case StatusRange:
		return "range"
	case StatusRevoked:
		return "revoked"
	}
	return fmt.Sprintf("status%d", st)
}

// Read request flag bits.
const (
	// ReadNoData suppresses the block bytes in the response: the access
	// (and its accounting, fills, replacement) happens normally, but the
	// reply carries only the hit flag. Load generation uses it to
	// measure cache behavior without paying response bandwidth.
	ReadNoData uint8 = 1 << 0
)

// Response flag bits (read and write).
const (
	// FlagHit reports that the access hit the cache.
	FlagHit uint8 = 1 << 0
)

// MaxFrame bounds a frame: the largest legal message is a whole-block
// write (header + 13 bytes of fields + one 8 KB block).
const MaxFrame = 16 * 1024

// FrameOverhead is the id+tag part covered by the length prefix.
const FrameOverhead = 5

// frameHeaderLen is the length prefix plus the part it covers that is
// not body: what ReadFrameHeader needs before it can return.
const frameHeaderLen = 4 + FrameOverhead

// appendFrameHeader appends the 9-byte header of a frame whose body is
// bodyLen bytes: the one encoder of it, under WriteFrame and the
// zero-copy response writer (wire.go).
func appendFrameHeader(b []byte, id uint32, tag uint8, bodyLen int) []byte {
	return append(app32(app32(b, uint32(FrameOverhead+bodyLen)), id), tag)
}

// WriteFrame writes one frame. On a *bufio.Writer — what every framing
// path in the repository hands it — the header is built in the writer's
// own spare buffer, so a frame costs no allocation; for any other writer
// the header is a fresh 9 bytes.
func WriteFrame(w io.Writer, id uint32, tag uint8, body []byte) error {
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok {
		hdr = bw.AvailableBuffer()
	}
	if _, err := w.Write(appendFrameHeader(hdr, id, tag, len(body))); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrameHeader reads and validates one frame's 9-byte header from br,
// leaving the body (bodyLen bytes) unconsumed on the stream: the one frame
// decoder. It allocates nothing — Peek/Discard keep the header inside the
// bufio buffer — so the caller chooses where the body goes: the server
// peeks it in place in br, a client reads it into a caller-owned slice.
func ReadFrameHeader(br *bufio.Reader) (id uint32, tag uint8, bodyLen int, err error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	if n < FrameOverhead || n > MaxFrame {
		return 0, 0, 0, fmt.Errorf("server: bad frame length %d", n)
	}
	id = binary.BigEndian.Uint32(hdr[4:])
	tag = hdr[8]
	br.Discard(frameHeaderLen)
	return id, tag, int(n) - FrameOverhead, nil
}

// be32 / be16 / app32 / app16 are the big-endian helpers of the parsers
// and appenders below; a parser's caller has bounds-checked the body.
func be32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }
func be16(b []byte) uint16 { return binary.BigEndian.Uint16(b) }

func app32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func app16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// Message bodies. Each type's Append writes the body after b and its
// parser reports whether b is exactly one such body — nothing short or
// long is accepted, so a body has one encoding. A field narrower on the
// wire than in Go (the comments give the wire width) is truncated by
// Append.

// ReadReq is the read request: size bytes at off within block blk.
type ReadReq struct {
	File      fs.FileID
	Blk       int32
	Off, Size int   // u16
	Flags     uint8 // ReadNoData
}

func (m ReadReq) Append(b []byte) []byte {
	b = app32(app32(b, uint32(m.File)), uint32(m.Blk))
	return append(app16(app16(b, uint16(m.Off)), uint16(m.Size)), m.Flags)
}

func ParseReadReq(b []byte) (ReadReq, bool) {
	if len(b) != 13 {
		return ReadReq{}, false
	}
	return ReadReq{fs.FileID(be32(b)), int32(be32(b[4:])), int(be16(b[8:])), int(be16(b[10:])), b[12]}, true
}

// WriteReq is the write request: Data (at most 65 535 bytes, its length
// the body's len field) at off within block blk. A parsed Data aliases
// the body.
type WriteReq struct {
	File fs.FileID
	Blk  int32
	Off  int // u16
	Data []byte
}

func (m WriteReq) Append(b []byte) []byte {
	b = app32(app32(b, uint32(m.File)), uint32(m.Blk))
	return append(app16(app16(b, uint16(m.Off)), uint16(len(m.Data))), m.Data...)
}

func ParseWriteReq(b []byte) (WriteReq, bool) {
	if len(b) < 12 || len(b) != 12+int(be16(b[10:])) {
		return WriteReq{}, false
	}
	return WriteReq{fs.FileID(be32(b)), int32(be32(b[4:])), int(be16(b[8:])), b[12:]}, true
}

// CreateReq is the create request: a file of Size blocks on disk Disk.
// The name is never empty.
type CreateReq struct {
	Disk int // u8
	Size int // u32, blocks
	Name string
}

func (m CreateReq) Append(b []byte) []byte {
	return append(app32(append(b, uint8(m.Disk)), uint32(m.Size)), m.Name...)
}

func ParseCreateReq(b []byte) (CreateReq, bool) {
	if len(b) < 6 {
		return CreateReq{}, false
	}
	return CreateReq{int(b[0]), int(be32(b[1:])), string(b[5:])}, true
}

// FileReply is the OK response to open and create: the file's wire id
// and its size in blocks.
type FileReply struct {
	ID   fs.FileID
	Size int // u32
}

func (m FileReply) Append(b []byte) []byte {
	return app32(app32(b, uint32(m.ID)), uint32(m.Size))
}

func ParseFileReply(b []byte) (FileReply, bool) {
	if len(b) != 8 {
		return FileReply{}, false
	}
	return FileReply{fs.FileID(be32(b)), int(be32(b[4:]))}, true
}

// Word is the one-field body, 4 bytes: the file of close and
// get_priority, the priority level of get_policy, and the priority
// get_priority answers with.
type Word int32

func (m Word) Append(b []byte) []byte { return app32(b, uint32(m)) }

func ParseWord(b []byte) (Word, bool) {
	if len(b) != 4 {
		return 0, false
	}
	return Word(be32(b)), true
}

// fileOf returns the file id that leads every file-scoped request body
// (read, write, close, set_priority, get_priority, set_temppri), which is
// all routing reads of one; ok is false for a body too short to hold it.
func fileOf(b []byte) (fs.FileID, bool) {
	f, ok := ParseWord(b[:min(len(b), 4)])
	return fs.FileID(f), ok
}

// SetPriorityReq is the set_priority request.
type SetPriorityReq struct {
	File fs.FileID
	Prio int // i32
}

func (m SetPriorityReq) Append(b []byte) []byte {
	return app32(app32(b, uint32(m.File)), uint32(int32(m.Prio)))
}

func ParseSetPriorityReq(b []byte) (SetPriorityReq, bool) {
	if len(b) != 8 {
		return SetPriorityReq{}, false
	}
	return SetPriorityReq{fs.FileID(be32(b)), int(int32(be32(b[4:])))}, true
}

// SetPolicyReq is the set_policy request; its OK response is the policy
// byte alone.
type SetPolicyReq struct {
	Prio   int        // i32
	Policy acm.Policy // u8
}

func (m SetPolicyReq) Append(b []byte) []byte {
	return append(app32(b, uint32(int32(m.Prio))), uint8(m.Policy))
}

func ParseSetPolicyReq(b []byte) (SetPolicyReq, bool) {
	if len(b) != 5 {
		return SetPolicyReq{}, false
	}
	return SetPolicyReq{int(int32(be32(b))), acm.Policy(b[4])}, true
}

// SetTempPriReq is the set_temppri request: a temporary priority for the
// cached blocks of File in [Start, End].
type SetTempPriReq struct {
	File       fs.FileID
	Start, End int32
	Prio       int // i32
}

func (m SetTempPriReq) Append(b []byte) []byte {
	b = app32(app32(b, uint32(m.File)), uint32(m.Start))
	return app32(app32(b, uint32(m.End)), uint32(int32(m.Prio)))
}

func ParseSetTempPriReq(b []byte) (SetTempPriReq, bool) {
	if len(b) != 16 {
		return SetTempPriReq{}, false
	}
	return SetTempPriReq{fs.FileID(be32(b)), int32(be32(b[4:])), int32(be32(b[8:])), int(int32(be32(b[12:])))}, true
}
