package server_test

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// TestStalledSessionDoesNotBlockShard: a session that pipelines
// whole-block reads on a shard and never reads its socket stalls only
// itself. Its reader runs MaxInflight reads at a time in the shard,
// whose replies queue for its writer without blocking (the token rule),
// so the shard lock is never held across the stalled socket: a second
// session on the same shard finishes 1 000 reads well inside the
// deadline while the first has reads the server has not yet run, and the
// first still gets every reply once it reads.
func TestStalledSessionDoesNotBlockShard(t *testing.T) {
	// stalled reads are 16 MB of replies, more than loopback's socket
	// buffers hold, so the stalled session's writer blocks for certain.
	const inflight, blocks, stalled, reads = 32, 8, 2048, 1000
	srv, addr, dial := startServer(t, server.Config{Shards: 1, MaxInflight: inflight})
	setup := dial()
	f, err := setup.Create("stall", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0x3c}, core.BlockSize)
	for b := int32(0); b < blocks; b++ {
		if _, err := setup.Write(f.ID, b, 0, block); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bw := bufio.NewWriter(raw)
	for i := 0; i < stalled; i++ {
		body := server.ReadReq{File: f.ID, Blk: int32(i % blocks), Size: core.BlockSize}.Append(nil)
		if err := server.WriteFrame(bw, uint32(i+1), server.OpRead, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	c := dial()
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < reads; i++ {
			data, _, err := c.Read(f.ID, int32(i%blocks), 0, core.BlockSize)
			if err == nil && !bytes.Equal(data, block) {
				err = errors.New("read back wrong bytes")
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("a session on the stalled session's shard did not finish %d reads in 20 s", reads)
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics not ok on a live server")
	}
	ran := int64(-1)
	for _, si := range m.Sessions {
		if si.Name == raw.LocalAddr().String() {
			ran = si.Stats.ReadCalls
		}
	}
	if ran < 0 || ran >= stalled {
		t.Fatalf("the server ran %d of the stalled session's %d reads, want some but not all", ran, stalled)
	}

	br := bufio.NewReader(raw)
	raw.SetReadDeadline(time.Now().Add(20 * time.Second))
	for i := 0; i < stalled; i++ {
		_, status, n, err := server.ReadFrameHeader(br)
		if err != nil {
			t.Fatalf("stalled session, reply %d: %v", i, err)
		}
		if status != server.StatusOK || n != 1+core.BlockSize {
			t.Fatalf("stalled session, reply %d: status %d, %d bytes", i, status, n)
		}
		if _, err := br.Discard(n); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRoundTrip times one lone request over a loopback session to a
// two-shard server: a ping (no kernel work) and a whole-block read hit.
// Nothing is pipelined, so one op is one trip: the session's reader runs
// the request (a hit in its shard, under the shard lock), its reply
// crosses the one goroutine hop to the session's writer, and the writer
// sends it. That hop is the largest part of the trip the server owns;
// a reader that answered a lone request itself brought a ping from
// 21–36 µs to 16–19 µs on 2 vCPU and moved no workload (ROADMAP's dead
// ends).
func BenchmarkRoundTrip(b *testing.B) {
	_, _, dial := startServer(b, server.Config{Shards: 2})
	c := dial()
	defer c.Close()
	f, err := c.Create("rt", 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Write(f.ID, 0, 0, make([]byte, core.BlockSize)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, core.BlockSize)
	for _, arm := range []struct {
		name string
		op   func() error
	}{
		{"ping", c.Ping},
		{"hit", func() error {
			_, err := c.ReadInto(f.ID, 0, 0, core.BlockSize, buf)
			return err
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := arm.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
