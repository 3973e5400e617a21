package server_test

import (
	"bytes"
	"errors"
	"testing"

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
// hostile name below carries a word that used to pick the status.
func TestStatusIgnoresErrorText(t *testing.T) {
	cfg := server.Config{Kernel: core.LiveConfig{
		CacheBytes: 8 * core.BlockSize,
		DiskBlocks: []int{32, 32},
		ACMLimits:  acm.Limits{MaxManagers: 1, MaxLevels: 4, MaxFileRecords: 1},
		Store:      fullStore{disk.NewMemStore()},
	}}
	_, _, dial := startServer(t, cfg)
	c, second := dial(), dial()
	defer c.Close()
	defer second.Close()

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
		{"create on a full disk", create("a", 64), server.StatusLimit},
		{"create on a full disk, name says exists", create("my exists", 64), server.StatusLimit},
		{"create on a full disk, name says space", create("spacecraft", 64), server.StatusLimit},
		{"create", func() (err error) { other, err = c.Create("the limit of space", 0, 1); return err }, server.StatusOK},
		{"create again, name says limit and space", create("the limit of space", 1), server.StatusExists},
		{"open an absent file, name says exists", func() error { _, err := c.Open("exists"); return err }, server.StatusNotFound},
		{"create on no such disk, name says all three", func() error {
			_, err := c.Create("exists limit space", 7, 1)
			return err
		}, server.StatusIO},
		{"create a file to grow", func() (err error) { grown, err = c.Create("g", 1, 1); return err }, server.StatusOK},
		{"grow past the disk's end", func() error { _, err := c.Write(grown.ID, 40, 0, block); return err }, server.StatusLimit},
		{"first manager", func() error { return c.Control(true) }, server.StatusOK},
		{"second manager, over MaxManagers", func() error { return second.Control(true) }, server.StatusLimit},
		{"one file record", func() error { return c.SetPriority(grown.ID, 1) }, server.StatusOK},
		{"a second file record, over MaxFileRecords", func() error { return c.SetPriority(other.ID, 1) }, server.StatusLimit},
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
