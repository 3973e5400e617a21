package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// TestZeroCopyReadHitAllocs is the tentpole's regression gate: on the
// steady-state pipelined read-hit path the server must allocate nothing
// and copy the payload zero times (no wire-copy fallbacks) — a hit's
// bytes go cache arena -> socket via the pinned-slot scatter/gather
// writer. The client side of this test is itself allocation-free (raw
// frames, persistent buffers), so the process-wide Mallocs delta is the
// serve path's.
func TestZeroCopyReadHitAllocs(t *testing.T) {
	const blocks = 4
	srv, addr, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{CacheBytes: 64 * core.BlockSize},
	})

	setup := dial()
	f, err := setup.Create("zc/file", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, core.BlockSize)
	for b := int32(0); b < blocks; b++ {
		for i := range payload {
			payload[i] = byte(int(b) + i)
		}
		if _, err := setup.Write(f.ID, b, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bw := bufio.NewWriterSize(raw, server.MaxFrame)
	br := bufio.NewReaderSize(raw, server.MaxFrame)

	// Pre-encoded read frames (one per block) and a persistent response
	// buffer: the measured loop reuses everything.
	reqs := make([][]byte, blocks)
	for b := range reqs {
		var buf bytes.Buffer
		body := server.ReadReq{File: f.ID, Blk: int32(b), Size: core.BlockSize}.Append(nil)
		if err := server.WriteFrame(&buf, uint32(b+1), server.OpRead, body); err != nil {
			t.Fatal(err)
		}
		reqs[b] = buf.Bytes()
	}
	resp := make([]byte, 1+core.BlockSize)

	batch := func() error {
		for _, rq := range reqs {
			if _, err := bw.Write(rq); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for i := 0; i < blocks; i++ {
			id, status, n, err := server.ReadFrameHeader(br)
			if err != nil {
				return err
			}
			if status != server.StatusOK {
				return fmt.Errorf("req %d: status %s", id, server.StatusName(status))
			}
			if n != 1+core.BlockSize {
				return fmt.Errorf("req %d: %d-byte body", id, n)
			}
			if _, err := io.ReadFull(br, resp[:n]); err != nil {
				return err
			}
			if resp[0]&server.FlagHit == 0 {
				return fmt.Errorf("req %d: miss on the hot path", id)
			}
			b := int(id) - 1
			if resp[1] != byte(b) || resp[core.BlockSize] != byte(b+core.BlockSize-1) {
				return fmt.Errorf("req %d: payload corrupted", id)
			}
		}
		return nil
	}

	// Warm: blocks into cache (already there from the writes), pools and
	// iovec scratch into steady state.
	for i := 0; i < 8; i++ {
		if err := batch(); err != nil {
			t.Fatal(err)
		}
	}

	const measured = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < measured; i++ {
		if err := batch(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)

	ops := float64(measured * blocks)
	allocsPerOp := float64(m1.Mallocs-m0.Mallocs) / ops
	t.Logf("allocs/op = %.3f over %d read hits", allocsPerOp, int(ops))
	if allocsPerOp > 0.5 && !server.RaceEnabled {
		t.Errorf("read-hit path allocates: %.3f allocs/op, want ~0", allocsPerOp)
	}

	// And it never fell back to copying: every hit above was served
	// straight from its pinned arena slot.
	st := dial()
	defer st.Close()
	sr, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Kernel.Fill.WireCopyFallbacks; got != 0 {
		t.Errorf("wire_copy_fallbacks = %d, want 0 on a read-only steady state", got)
	}
	_ = srv
}
