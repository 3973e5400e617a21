// wire.go — the zero-copy response writer.
//
// A read hit's bytes live in an arena-backed cache slot (cache/slot.go).
// Instead of copying them into a response buffer and again into a bufio
// writer, the shard enqueues a frame descriptor that references the
// slot (pinned), and the session writer assembles header + flags byte +
// block slice as scatter/gather vectors: a pipelined burst of hits
// becomes one vectored write (net.Buffers → writev) that the kernel
// copies straight from the cache arena onto the socket. The pin is
// released after the vectored write returns — the only cross-goroutine
// hand-off, ordered by the slot's atomic refcount — at which point the
// kernel is free to mutate or recycle the slot again.
//
// Frame headers are encoded into a fixed-capacity scratch arena. The
// arena must never reallocate while vectors point into it, so the writer
// flushes whenever the next header might not fit (frameWriter.full).

package server

import (
	"net"
	"time"

	"repro/internal/cache"
)

// zcHdrLen is a zero-copy read response's fixed prefix: the 9-byte frame
// header plus the flags byte, contiguous in the scratch arena so the
// response costs two vectors (prefix, payload).
const zcHdrLen = 10

// maxBatchFrames bounds the frames encoded per flush; it sizes the
// header scratch (the binding limit) and keeps the vector count well
// under the kernel's iovec ceiling.
const maxBatchFrames = 64

// frameWriter batches response frames into vectored writes. Owned by one
// session's writer goroutine.
type frameWriter struct {
	conn  net.Conn
	vecs  net.Buffers
	out   net.Buffers   // the copy of vecs a flush's WriteTo consumes
	hdrs  []byte        // header scratch; fixed capacity, vecs slice into it
	slots []*cache.Slot // pinned slots, unpinned by the next reset
}

func newFrameWriter(conn net.Conn) *frameWriter {
	return &frameWriter{
		conn:  conn,
		vecs:  make(net.Buffers, 0, 2*maxBatchFrames),
		hdrs:  make([]byte, 0, maxBatchFrames*zcHdrLen),
		slots: make([]*cache.Slot, 0, maxBatchFrames),
	}
}

// full reports whether the next add could outgrow the header scratch,
// which must never reallocate under the batched vectors.
func (w *frameWriter) full() bool {
	return len(w.hdrs)+zcHdrLen > cap(w.hdrs)
}

// add encodes f's header into the scratch arena and appends its vectors.
// The caller has checked full(), so the appends stay inside the arena.
func (w *frameWriter) add(f *outFrame) {
	n := len(w.hdrs)
	if f.slot != nil {
		w.hdrs = append(appendFrameHeader(w.hdrs, f.id, f.tag, 1+len(f.payload)), f.flags)
		w.vecs = append(w.vecs, w.hdrs[n:], f.payload)
		w.slots = append(w.slots, f.slot)
		return
	}
	w.hdrs = appendFrameHeader(w.hdrs, f.id, f.tag, len(f.body))
	w.vecs = append(w.vecs, w.hdrs[n:])
	if len(f.body) > 0 {
		w.vecs = append(w.vecs, f.body)
	}
}

// flush pushes every batched vector in one vectored write, then unpins
// and resets. It resets on error too — a failed write still surrenders
// the pins, the connection is about to die anyway.
func (w *frameWriter) flush() error {
	if len(w.vecs) == 0 {
		return nil
	}
	w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	// WriteTo consumes its receiver: give it a field, not a local, which
	// would escape to the heap on every flush. Entries are reset below.
	w.out = w.vecs
	_, err := w.out.WriteTo(w.conn)
	w.reset()
	return err
}

func (w *frameWriter) reset() {
	for i := range w.vecs {
		w.vecs[i] = nil
	}
	w.vecs = w.vecs[:0]
	w.hdrs = w.hdrs[:0]
	for i, s := range w.slots {
		s.Unpin()
		w.slots[i] = nil
	}
	w.slots = w.slots[:0]
}

// releaseFrame drops a frame without sending it (dead connection),
// returning its pin.
func releaseFrame(f *outFrame) {
	if f.slot != nil {
		f.slot.Unpin()
	}
}
