package server_test

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/server"
)

// TestIdleTimeout: the idle deadline is armed when a read is about to
// block, not once per frame. A pipelined burst that arrives in one
// segment is answered whole, steady traffic slower than the burst but
// faster than the timeout keeps the session, and silence ends it.
func TestIdleTimeout(t *testing.T) {
	const idle = 150 * time.Millisecond
	_, addr, _ := startServer(t, server.Config{IdleTimeout: idle})
	c, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)

	const burst = 64
	var frames bytes.Buffer
	for i := 0; i < burst; i++ {
		server.WriteFrame(&frames, uint32(i), server.OpPing, nil)
	}
	if _, err := c.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if id, tag, _, err := readFrame(br); err != nil || tag != server.StatusOK || id != uint32(i) {
			t.Fatalf("burst reply %d: id %d, status %s, err %v", i, id, server.StatusName(tag), err)
		}
	}
	// Three timeouts' worth of pings, each well inside the timeout.
	var lastPing time.Time
	for start := time.Now(); time.Since(start) < 3*idle; time.Sleep(idle / 5) {
		lastPing = time.Now()
		if err := server.WriteFrame(c, 1000, server.OpPing, nil); err != nil {
			t.Fatalf("a busy session was disconnected: %v", err)
		}
		if _, tag, _, err := readFrame(br); err != nil || tag != server.StatusOK {
			t.Fatalf("a busy session was disconnected: status %s, err %v", server.StatusName(tag), err)
		}
	}
	// Silence: the server hangs up after idle, not before. It armed the
	// deadline no earlier than it received the last ping, which is no
	// earlier than lastPing, so the floor needs no tolerance.
	if _, _, _, err := readFrame(br); err != io.EOF {
		t.Fatalf("an idle session read %v, want EOF", err)
	}
	if d := time.Since(lastPing); d < idle || d > 20*idle {
		t.Errorf("idle session closed %v after its last ping, want about %v", d, idle)
	}
}
