package server_test

// The reader's buffer: a frame's body is read in place in the session's
// bufio.Reader and is valid only until its handler returns. These tests
// pin what that asks of the handlers and of the reader. Run by name
// under -race with the shard-lock gates (make race-shard).

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/leakcheck"
	"repro/internal/server"
)

// TestSessionBodyWriteWaitsOnFill sends a burst of three partial writes
// to uncached blocks over a slow store, so each waits on its
// read-modify-write fill. Each body nearly fills half the reader's
// buffer, so the third frame's bytes land where the first one's were
// while that first write still waits: every write must reach the cache
// as it was sent.
func TestSessionBodyWriteWaitsOnFill(t *testing.T) {
	store := &countingStore{Store: disk.NewMemStore(), readDelay: 20 * time.Millisecond}
	_, addr, dial := startServer(t, server.Config{Kernel: core.LiveConfig{Store: store}})
	c := dial()
	defer c.Close()
	f, err := c.Create("borrowed", 0, 4)
	if err != nil {
		t.Fatal(err)
	}

	const off, size = 1, 8000
	payload := func(blk int32) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(int(blk)*31 + i)
		}
		return p
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var burst bytes.Buffer
	for blk := int32(1); blk <= 3; blk++ {
		req := server.WriteReq{File: f.ID, Blk: blk, Off: off, Data: payload(blk)}
		server.WriteFrame(&burst, uint32(blk), server.OpWrite, req.Append(nil))
	}
	if _, err := raw.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	for range 3 {
		id, st, body, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if st != server.StatusOK {
			t.Fatalf("write %d: status %s: %s", id, server.StatusName(st), body)
		}
	}
	for blk := int32(1); blk <= 3; blk++ {
		data, _, err := c.Read(f.ID, blk, off, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, payload(blk)) {
			t.Errorf("block %d does not hold the bytes written to it", blk)
		}
	}
}

// TestSessionBodyLargestFrame sends the largest legal body — an open
// whose name fills the frame — and then a ping: the name is answered
// not_found and the session keeps serving, so a body of any legal length
// fits the reader's buffer.
func TestSessionBodyLargestFrame(t *testing.T) {
	_, addr, _ := startServer(t, server.Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var burst bytes.Buffer
	server.WriteFrame(&burst, 1, server.OpOpen, bytes.Repeat([]byte{'n'}, server.MaxFrame-server.FrameOverhead))
	server.WriteFrame(&burst, 2, server.OpPing, nil)
	if _, err := raw.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	for _, want := range []struct {
		id uint32
		st uint8
	}{{1, server.StatusNotFound}, {2, server.StatusOK}} {
		id, st, _, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if id != want.id || st != want.st {
			t.Fatalf("response %d: %s, want %d: %s", id, server.StatusName(st), want.id, server.StatusName(want.st))
		}
	}
}

// TestSessionBodyCutShort hangs up in the middle of a frame's body: the
// session ends, its owner is released in every shard, and neither of
// its goroutines is left behind.
func TestSessionBodyCutShort(t *testing.T) {
	srv, addr, _ := startServer(t, server.Config{Shards: 2})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	server.WriteFrame(raw, 1, server.OpPing, nil)
	if _, st, _, err := readFrame(br); err != nil || st != server.StatusOK {
		t.Fatalf("ping: status %s, %v", server.StatusName(st), err)
	}
	var cut bytes.Buffer
	server.WriteFrame(&cut, 2, server.OpOpen, bytes.Repeat([]byte{'n'}, 100))
	if _, err := raw.Write(cut.Bytes()[:cut.Len()-50]); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	waitSessionsGone(t, srv)
	if found := leakcheck.Wait(2*time.Second, "repro/internal/server.(*session)"); len(found) > 0 {
		t.Errorf("%d session goroutine(s) survive the hangup:\n%s", len(found), strings.Join(found, "\n\n"))
	}
}
