package server

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fs"
)

func statusOf(err error) uint8 {
	switch {
	case err == errMalformed:
		return StatusBadRequest
	case errors.Is(err, core.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, core.ErrOutOfRange):
		return StatusRange
	case errors.Is(err, core.ErrUnknownOwner):
		return StatusRevoked
	case errors.Is(err, core.ErrNoControl), errors.Is(err, core.ErrControlled):
		return StatusNoControl
	case errors.Is(err, fs.ErrExists):
		return StatusExists
	case errors.Is(err, acm.ErrLimit), errors.Is(err, fs.ErrNoSpace):
		return StatusLimit
	}
	return StatusIO
}

// handle runs one request under the shard lock. r and its body are
// valid only until handle returns, so a handler that completes
// asynchronously (handleRead) copies what it needs out of r first.
func (sh *shard) handle(se *session, r *request) {
	sh.requests++
	if sh.draining {
		sh.refused++
		se.send(r.id, StatusRefused, []byte("server shutting down"))
		return
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
		sh.handleWrite(se, r)
	case OpClose:
		if _, ok := ParseWord(r.body); !ok {
			se.send(r.id, StatusBadRequest, []byte("close: want 4-byte body"))
			return
		}
		// Close is advisory in this kernel (blocks stay cached, as in
		// the paper, until evicted or the owner disconnects).
		se.send(r.id, StatusOK, nil)
	case OpRemove:
		if err := sh.kern.Remove(se.owners[sh.idx], string(r.body)); err != nil {
			se.sendErr(r.id, err)
			return
		}
		se.send(r.id, StatusOK, nil)
	case OpRelease:
		id := r.id
		sh.kern.ReleaseFile(se.owners[sh.idx], string(r.body), func(err error) {
			if err != nil {
				se.sendErr(id, err)
				return
			}
			se.send(id, StatusOK, nil)
		})
	case OpSetPriority, OpGetPriority, OpGetPolicy, OpSetTempPri:
		sh.handleFbehavior(se, r)
	default:
		se.send(r.id, StatusBadRequest, []byte(fmt.Sprintf("unknown op %d", r.op)))
	}
}

func (sh *shard) handleOpen(se *session, r *request) {
	f, err := sh.kern.Open(se.owners[sh.idx], string(r.body))
	if err != nil {
		se.sendErr(r.id, err)
		return
	}
	sh.replyFile(se, r.id, f)
}

func (sh *shard) handleCreate(se *session, r *request) {
	m, ok := ParseCreateReq(r.body)
	if !ok {
		se.send(r.id, StatusBadRequest, []byte("create: short body"))
		return
	}
	f, err := sh.kern.Create(se.owners[sh.idx], m.Name, m.Disk, m.Size)
	if err != nil {
		se.sendErr(r.id, err)
		return
	}
	sh.replyFile(se, r.id, f)
}

// replyFile answers a successful open or create: the file is announced
// to a name-addressed store (announcer) and the reply carries its id
// and size.
func (sh *shard) replyFile(se *session, id uint32, f *fs.File) {
	if sh.announce != nil {
		sh.announce.Announce(int32(f.ID()), f.Name())
	}
	se.send(id, StatusOK, FileReply{ID: f.ID(), Size: f.Size()}.Append(nil))
}

// readCtx is one in-flight read's reply state, pooled so the hot path
// allocates nothing. It copies every field it needs out of the request
// (which is gone when the handler returns) and implements
// core.ReadReply; the kernel invokes ReadDone under the shard lock,
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
	// running under the shard lock, nothing can evict or mutate the
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
	m, ok := ParseReadReq(r.body)
	if !ok {
		se.send(r.id, StatusBadRequest, []byte("read: want 13-byte body"))
		return
	}
	rc := readCtxPool.Get().(*readCtx)
	*rc = readCtx{
		sh:    sh,
		se:    se,
		id:    r.id,
		off:   m.Off,
		size:  m.Size,
		flags: m.Flags,
		bid:   cache.BlockID{File: m.File, Num: m.Blk},
	}
	sh.kern.ReadTo(se.owners[sh.idx], m.File, m.Blk, m.Off, m.Size, rc)
}

func (sh *shard) handleWrite(se *session, r *request) {
	m, ok := ParseWriteReq(r.body)
	if !ok {
		se.send(r.id, StatusBadRequest, []byte("write: length mismatch"))
		return
	}
	id := r.id
	// m.Data aliases the session's read buffer; the kernel borrows it for
	// this call only and copies what it must keep.
	sh.kern.Write(se.owners[sh.idx], m.File, m.Blk, m.Off, m.Data, func(hit bool, err error) {
		if err != nil {
			se.sendErr(id, err)
			return
		}
		se.send(id, StatusOK, flagBody(hit))
	})
}

// errMalformed is a fixed-length fbehavior body of the wrong length.
var errMalformed = errors.New("fbehavior: malformed body")

// handleFbehavior serves the shard-local fbehavior ops: each has a
// fixed-length body and replies nothing, or the value it read.
func (sh *shard) handleFbehavior(se *session, r *request) {
	owner, b := se.owners[sh.idx], r.body
	var resp []byte
	err := errMalformed
	switch r.op {
	case OpSetPriority:
		if m, ok := ParseSetPriorityReq(b); ok {
			err = sh.kern.SetPriority(owner, m.File, m.Prio)
		}
	case OpGetPriority:
		if f, ok := ParseWord(b); ok {
			var prio int
			prio, err = sh.kern.GetPriority(owner, fs.FileID(f))
			resp = Word(prio).Append(nil)
		}
	case OpGetPolicy:
		if prio, ok := ParseWord(b); ok {
			var pol acm.Policy
			pol, err = sh.kern.GetPolicy(owner, int(prio))
			resp = []byte{uint8(pol)}
		}
	case OpSetTempPri:
		if m, ok := ParseSetTempPriReq(b); ok {
			err = sh.kern.SetTempPri(owner, m.File, m.Start, m.End, m.Prio)
		}
	}
	if err != nil {
		se.sendErr(r.id, err)
		return
	}
	se.send(r.id, StatusOK, resp)
}

// broadcastCtl runs a control-plane op (control, set_policy) in every
// shard, in shard order, and replies once: these ops target the
// session's manager state, which exists per shard. First error wins; a
// refusal from any shard refuses the whole op. Runs on the session's
// reader, one shard at a time: it never holds two shard locks, and a
// shard cannot retire while the session is registered there.
func (s *Server) broadcastCtl(se *session, r *request) {
	s.xRequests.Add(1)
	// Validate and decode before touching any shard, so a bad body can
	// never leave the shards split.
	var apply func(k *core.Live, owner int) error
	var okBody []byte
	switch r.op {
	case OpControl:
		if len(r.body) != 1 {
			se.send(r.id, StatusBadRequest, []byte("control: want 1-byte body"))
			return
		}
		apply = (*core.Live).DisableControl
		if r.body[0] != 0 {
			apply = (*core.Live).EnableControl
		}
	case OpSetPolicy:
		m, ok := ParseSetPolicyReq(r.body)
		if !ok {
			se.send(r.id, StatusBadRequest, []byte("set_policy: want 5-byte body"))
			return
		}
		apply = func(k *core.Live, owner int) error { return k.SetPolicy(owner, m.Prio, m.Policy) }
		okBody = []byte{uint8(m.Policy)}
	}
	var firstErr error
	refused := false
	for _, sh := range s.shards {
		var err error
		asked := sh.ask(func(sh *shard) {
			if sh.draining {
				refused = true
				return
			}
			err = apply(sh.kern, se.owners[sh.idx])
		})
		if !asked {
			refused = true
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	switch {
	case refused:
		s.xRefused.Add(1)
		se.send(r.id, StatusRefused, []byte("server shutting down"))
	case firstErr != nil:
		se.sendErr(r.id, firstErr)
	default:
		se.send(r.id, StatusOK, okBody)
	}
}
