package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/acm"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/server/client"
)

// fullStore fails every write the way a full device does — in words
// that name two other statuses.
type fullStore struct{ disk.Store }

var errDeviceFull = errors.New("pwrite blocks.dat: no space left on device (quota limit; file exists)")

func (fullStore) WriteBlock(file, blk int32, src []byte) error { return errDeviceFull }

// TestStatusIgnoresErrorText: a response's status comes from what went
// wrong, never from words in the message — which quotes the client's
// own file names, and a store's error text below ErrWriteBack. Each
// hostile name below carries a word that used to pick the status. The
// limits are the daemon's own: the paper's disks and acm.DefaultLimits.
func TestStatusIgnoresErrorText(t *testing.T) {
	cfg := server.Config{Kernel: core.LiveConfig{
		CacheBytes: 8 * core.BlockSize,
		Store:      fullStore{disk.NewMemStore()},
	}}
	_, _, dial := startServer(t, cfg)
	c := dial()
	defer c.Close()

	tooBig := disk.RZ56.Blocks() + 1 // disk 0 is the RZ56
	create := func(name string, size int) func() error {
		return func() error { _, err := c.Create(name, 0, size); return err }
	}
	block := bytes.Repeat([]byte{0xEE}, core.BlockSize)
	var grown, other client.File
	cases := []struct {
		what string
		do   func() error
		want uint8
	}{
		{"create larger than the disk", create("a", tooBig), server.StatusLimit},
		{"create larger than the disk, name says exists", create("my exists", tooBig), server.StatusLimit},
		{"create larger than the disk, name says space", create("spacecraft", tooBig), server.StatusLimit},
		{"create", func() (err error) { other, err = c.Create("the limit of space", 0, 1); return err }, server.StatusOK},
		{"create again, name says limit and space", create("the limit of space", 1), server.StatusExists},
		{"open an absent file, name says exists", func() error { _, err := c.Open("exists"); return err }, server.StatusNotFound},
		{"create on no such disk, name says all three", func() error {
			_, err := c.Create("exists limit space", 7, 1)
			return err
		}, server.StatusIO},
		{"create a file to grow", func() (err error) { grown, err = c.Create("g", 1, 1); return err }, server.StatusOK},
		{"grow past the disk's end", func() error {
			_, err := c.Write(grown.ID, int32(disk.RZ26.Blocks()), 0, block) // disk 1 is the RZ26
			return err
		}, server.StatusLimit},
		{"manager", func() error { return c.Control(true) }, server.StatusOK},
		{"one file record", func() error { return c.SetPriority(other.ID, 1) }, server.StatusOK},
		{"file records up to and over MaxFileRecords", func() error {
			for i := 1; i <= acm.DefaultLimits.MaxFileRecords; i++ {
				f, err := c.Create(fmt.Sprintf("exists %d", i), 0, 1)
				if err != nil {
					return err
				}
				if err := c.SetPriority(f.ID, 1); err != nil {
					return err
				}
			}
			return nil
		}, server.StatusLimit},
		{"levels up to and over MaxLevels", func() error {
			for prio := 1; prio <= acm.DefaultLimits.MaxLevels+1; prio++ {
				if err := c.SetPolicy(prio, acm.LRU); err != nil {
					return err
				}
			}
			return nil
		}, server.StatusLimit},
	}
	for _, tc := range cases {
		if got := statusOfErr(t, tc.do()); got != tc.want {
			t.Errorf("%s: status %s, want %s", tc.what, server.StatusName(got), server.StatusName(tc.want))
		}
	}

	// Dirty more blocks than the cache holds: an eviction's write-back
	// fails in the store, and the request that forced it reads io.
	f, err := c.Create("dirty", 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	for b := int32(0); b < 16 && failed == nil; b++ {
		_, failed = c.Write(f.ID, b, 0, block)
	}
	if failed == nil {
		t.Fatal("16 dirty blocks through an 8-block cache over a failing store: no write failed")
	}
	if got := statusOfErr(t, failed); got != server.StatusIO {
		t.Errorf("failed write-back (%v): status %s, want io", failed, server.StatusName(got))
	}
}

// statusOfErr is the wire status behind a client error (ok for nil).
func statusOfErr(t *testing.T, err error) uint8 {
	t.Helper()
	if err == nil {
		return server.StatusOK
	}
	var se *client.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("not a status error: %v", err)
	}
	return se.Status
}

// TestMalformedBodiesAreBadRequests: every op with a body answers a body
// one byte short, and one byte long, with bad_request — on two shards, so
// routing a body too short to hold its file id is covered — and the
// session keeps serving afterwards.
func TestMalformedBodiesAreBadRequests(t *testing.T) {
	_, addr, _ := startServer(t, server.Config{Shards: 2})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	var reqID uint32
	call := func(op uint8, body []byte) uint8 {
		t.Helper()
		reqID++
		if err := server.WriteFrame(raw, reqID, op, body); err != nil {
			t.Fatal(err)
		}
		id, st, _, err := readFrame(br)
		if err != nil || id != reqID {
			t.Fatalf("op %d: id %d err %v", op, id, err)
		}
		return st
	}
	for _, tc := range []struct {
		op   uint8
		body []byte // well-formed
	}{
		{server.OpCreate, server.CreateReq{Size: 1, Name: "f"}.Append(nil)},
		{server.OpRead, server.ReadReq{File: 1, Size: 8}.Append(nil)},
		{server.OpWrite, server.WriteReq{File: 1, Data: []byte("x")}.Append(nil)},
		{server.OpClose, server.Word(1).Append(nil)},
		{server.OpControl, []byte{1}},
		{server.OpSetPriority, server.SetPriorityReq{File: 1, Prio: 2}.Append(nil)},
		{server.OpGetPriority, server.Word(1).Append(nil)},
		{server.OpSetPolicy, server.SetPolicyReq{Prio: 2}.Append(nil)},
		{server.OpGetPolicy, server.Word(2).Append(nil)},
		{server.OpSetTempPri, server.SetTempPriReq{File: 1, End: 1, Prio: 2}.Append(nil)},
	} {
		short, long := tc.body[:len(tc.body)-1], append(tc.body[:len(tc.body):len(tc.body)], 0)
		if st := call(tc.op, short); st != server.StatusBadRequest {
			t.Errorf("op %d, body one byte short: status %s, want bad_request", tc.op, server.StatusName(st))
		}
		if tc.op == server.OpCreate {
			continue // a longer create body is a longer name
		}
		if st := call(tc.op, long); st != server.StatusBadRequest {
			t.Errorf("op %d, body one byte long: status %s, want bad_request", tc.op, server.StatusName(st))
		}
	}
	// The retired opcodes 15 and 16 (a live allocation-policy swap and its
	// read-back) fall to handle's default arm, with and without the body
	// they took.
	for _, op := range []uint8{15, 16} {
		for _, body := range [][]byte{nil, []byte("arc")} {
			if st := call(op, body); st != server.StatusBadRequest {
				t.Errorf("retired op %d, %d-byte body: status %s, want bad_request", op, len(body), server.StatusName(st))
			}
		}
	}
	if st := call(server.OpPing, nil); st != server.StatusOK {
		t.Errorf("ping after the malformed requests: status %s", server.StatusName(st))
	}
}

// TestReleaseStatuses: release (opcode 17, past the retired 15 and 16)
// answers ok for a name the server knows and not_found for one it does
// not, while 15 and 16 still answer bad_request; once the server drains,
// release is refused like every other op.
func TestReleaseStatuses(t *testing.T) {
	srv := server.New(server.Config{Kernel: core.LiveConfig{CacheBytes: core.MB(1)}, Shards: 2, CheckInvariants: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	var reqID uint32
	var resp []byte
	call := func(op uint8, body []byte) uint8 {
		t.Helper()
		reqID++
		if err := server.WriteFrame(raw, reqID, op, body); err != nil {
			t.Fatal(err)
		}
		id, st, b, err := readFrame(br)
		if err != nil || id != reqID {
			t.Fatalf("op %d: id %d err %v", op, id, err)
		}
		resp = b
		return st
	}
	expect := func(what string, got, want uint8) {
		t.Helper()
		if got != want {
			t.Errorf("%s: status %s, want %s", what, server.StatusName(got), server.StatusName(want))
		}
	}
	expect("create", call(server.OpCreate, server.CreateReq{Size: 2, Name: "f"}.Append(nil)), server.StatusOK)
	f, _ := server.ParseFileReply(resp)
	expect("write", call(server.OpWrite, server.WriteReq{File: f.ID, Data: bytes.Repeat([]byte{7}, core.BlockSize)}.Append(nil)), server.StatusOK)
	expect("release of a known name", call(server.OpRelease, []byte("f")), server.StatusOK)
	expect("release of an unknown name", call(server.OpRelease, []byte("nope")), server.StatusNotFound)
	for _, op := range []uint8{15, 16} {
		expect(fmt.Sprintf("retired op %d", op), call(op, []byte("f")), server.StatusBadRequest)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for call(server.OpPing, nil) != server.StatusRefused {
		if time.Now().After(deadline) {
			t.Fatal("the server never started refusing")
		}
		time.Sleep(time.Millisecond)
	}
	expect("release while draining", call(server.OpRelease, []byte("f")), server.StatusRefused)
	raw.Close()
	if err := <-done; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
