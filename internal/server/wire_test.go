package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// discardConn is the socket a frameWriter writes to, minus the socket:
// every write is taken whole and goes nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// frameWriteLoop feeds a frameWriter as a session's writer does: zero-copy
// read-hit frames over one slot, each pinned the way sendZC pins it, and
// a flush whenever the writer is full (every maxBatchFrames frames).
type frameWriteLoop struct {
	w       *frameWriter
	slot    *cache.Slot
	payload []byte
	id      uint32
}

func newFrameWriteLoop() *frameWriteLoop {
	return &frameWriteLoop{w: newFrameWriter(discardConn{}), slot: new(cache.Slot), payload: make([]byte, core.BlockSize)}
}

func (l *frameWriteLoop) next(t testing.TB) {
	if l.w.full() {
		if err := l.w.flush(); err != nil {
			t.Fatal(err)
		}
	}
	l.id++
	l.slot.Pin()
	l.w.add(&outFrame{id: l.id, tag: StatusOK, flags: FlagHit, payload: l.payload, slot: l.slot})
}

// BenchmarkFrameWrite times the last stage a read hit crosses, with no
// socket: one op is one zero-copy read-hit frame added to a frameWriter,
// which flushes every 64 frames into a connection that discards.
func BenchmarkFrameWrite(b *testing.B) {
	l := newFrameWriteLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.next(b)
	}
}

// TestFrameWriteAllocs is BenchmarkFrameWrite's gate: a frame allocates
// nothing, its flush included, and a flush gives back every pin its
// frames took. One run is a whole cycle of maxBatchFrames frames and
// the flush that ends it, so AllocsPerRun's truncation to a whole number
// per run cannot average one flush's allocation away.
func TestFrameWriteAllocs(t *testing.T) {
	l := newFrameWriteLoop()
	cycle := func() {
		for i := 0; i < maxBatchFrames; i++ {
			l.next(t)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n > 0 && !RaceEnabled {
		t.Errorf("%d zero-copy frame writes and their flush allocate %.0f times, want 0", maxBatchFrames, n)
	}
	if err := l.w.flush(); err != nil {
		t.Fatal(err)
	}
	if l.slot.Pinned() {
		t.Error("the slot is still pinned after the last flush")
	}
}
