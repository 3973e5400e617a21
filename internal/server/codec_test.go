package server_test

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// frameBurst is a pipelined burst of read requests as a session's reader
// takes them off the socket: n frames, back to back, pre-encoded.
func frameBurst(t testing.TB, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		body := server.ReadReq{File: 1, Blk: int32(i), Size: core.BlockSize}.Append(nil)
		if err := server.WriteFrame(&buf, uint32(i+1), server.OpRead, body); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// frameDecoder decodes a burst the way the session reader does:
// ReadFrameHeader, the body into a reused buffer, ParseReadReq. Each
// next call decodes one frame and starts the burst over when it is used
// up.
type frameDecoder struct {
	burst []byte
	n, i  int
	rd    *bytes.Reader
	br    *bufio.Reader
	body  []byte
}

func newFrameDecoder(t testing.TB, n int) *frameDecoder {
	d := &frameDecoder{burst: frameBurst(t, n), n: n, rd: bytes.NewReader(nil), body: make([]byte, server.MaxFrame)}
	d.br = bufio.NewReaderSize(d.rd, server.MaxFrame)
	return d
}

func (d *frameDecoder) next(t testing.TB) {
	if d.i%d.n == 0 {
		d.rd.Reset(d.burst)
		d.br.Reset(d.rd)
	}
	d.i++
	id, op, n, err := server.ReadFrameHeader(d.br)
	if err != nil || op != server.OpRead {
		t.Fatalf("frame %d: op %d, %v", id, op, err)
	}
	if _, err := io.ReadFull(d.br, d.body[:n]); err != nil {
		t.Fatal(err)
	}
	if m, ok := server.ParseReadReq(d.body[:n]); !ok || m.Size != core.BlockSize {
		t.Fatalf("frame %d: body %+v, ok %v", id, m, ok)
	}
}

// BenchmarkFrameDecode times the first stage a request crosses, with no
// socket: one op is one read request decoded from a 64-frame burst in
// an in-memory bufio.Reader.
func BenchmarkFrameDecode(b *testing.B) {
	d := newFrameDecoder(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.next(b)
	}
}

// TestFrameDecodeAllocs is BenchmarkFrameDecode's gate: decoding a read
// request allocates nothing.
func TestFrameDecodeAllocs(t *testing.T) {
	d := newFrameDecoder(t, 64)
	if n := testing.AllocsPerRun(1000, func() { d.next(t) }); n > 0 && !raceEnabled {
		t.Errorf("frame decode allocates %.2f times a frame, want 0", n)
	}
}
