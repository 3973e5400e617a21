package client

import (
	"bufio"
	"errors"
	"net"
	"testing"

	"repro/internal/server"
)

var _ Session = (*Conn)(nil)

// reply is one scripted response: the peer reads a request frame and
// answers with this id (0: echo the request's), tag and body.
type reply struct {
	id   uint32
	tag  uint8
	body []byte
}

// scripted returns a Conn whose peer, on the far end of a net.Pipe,
// answers the i-th request with script[i%len(script)] until the Conn is
// closed.
func scripted(t *testing.T, script ...reply) *Conn {
	t.Helper()
	near, far := net.Pipe()
	c := &Conn{
		c:  near,
		bw: bufio.NewWriterSize(near, server.MaxFrame),
		br: bufio.NewReaderSize(near, server.MaxFrame),
	}
	t.Cleanup(func() { c.Close() })
	go func() {
		defer far.Close()
		br, bw := bufio.NewReader(far), bufio.NewWriter(far)
		for i := 0; ; i++ {
			id, _, n, err := server.ReadFrameHeader(br)
			if err != nil {
				return
			}
			br.Discard(n)
			r := script[i%len(script)]
			if r.id != 0 {
				id = r.id
			}
			if server.WriteFrame(bw, id, r.tag, r.body) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	return c
}

func TestConnWrongResponseID(t *testing.T) {
	c := scripted(t, reply{id: 99, tag: server.StatusOK})
	if err := c.Ping(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("response id 99 for request 1: err = %v, want ErrBadFrame", err)
	}
}

func TestConnStatusError(t *testing.T) {
	c := scripted(t, reply{tag: server.StatusRefused, body: []byte("server shutting down")})
	_, err := c.ReadNoData(1, 0, 0, 8)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != server.StatusRefused || se.Msg != "server shutting down" {
		t.Fatalf("err = %#v, want a *StatusError carrying the refusal and its message", err)
	}
	if !errors.Is(err, ErrRefused) || errors.Is(err, ErrRevoked) {
		t.Errorf("errors.Is: refused %v, revoked %v; want true, false", errors.Is(err, ErrRefused), errors.Is(err, ErrRevoked))
	}
}

// TestConnWrongLengthKeepsFraming: a read reply of the wrong length is
// ErrBadFrame, and — its body discarded, not left on the stream — the
// next call on the same Conn is answered normally.
func TestConnWrongLengthKeepsFraming(t *testing.T) {
	c := scripted(t,
		reply{tag: server.StatusOK, body: []byte{server.FlagHit, 1, 2, 3}}, // 3 bytes of data for an 8-byte read
		reply{tag: server.StatusOK, body: []byte{server.FlagHit, 1, 2, 3, 4, 5, 6, 7, 8}},
	)
	dst := make([]byte, 8)
	if _, err := c.ReadInto(1, 0, 0, 8, dst); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("4-byte reply to an 8-byte read: err = %v, want ErrBadFrame", err)
	}
	hit, err := c.ReadInto(1, 0, 0, 8, dst)
	if err != nil || !hit || dst[0] != 1 || dst[7] != 8 {
		t.Errorf("the call after the bad reply: hit %v err %v dst %v; the stream lost its framing", hit, err, dst)
	}
}

func TestConnReadIntoShortBuffer(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	c := &Conn{c: near, bw: bufio.NewWriter(near), br: bufio.NewReader(near)}
	defer c.Close()
	// Nobody reads the far end: a request written would block forever.
	if _, err := c.ReadInto(1, 0, 0, 8, make([]byte, 7)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("7-byte buffer for an 8-byte read: err = %v, want ErrBadFrame", err)
	}
	if c.nextID != 0 {
		t.Errorf("a request was framed (next id %d) before the buffer was checked", c.nextID)
	}
}

func TestConnReadIntoAllocs(t *testing.T) {
	body := make([]byte, 1+64)
	body[0] = server.FlagHit
	c := scripted(t, reply{tag: server.StatusOK, body: body})
	dst := make([]byte, 64)
	n := testing.AllocsPerRun(200, func() {
		if hit, err := c.ReadInto(1, 2, 0, 64, dst); err != nil || !hit {
			t.Fatalf("hit %v, err %v", hit, err)
		}
	})
	if n != 0 {
		t.Errorf("ReadInto allocates %v times a call, want 0", n)
	}
}
