package cluster

import (
	"bytes"
	"testing"

	"repro/internal/disk"
)

// TestLifecycleNodeLeave: the planned leave still flushes and hands off
// with the shards retired — FlushDirty and LiveFiles read the kernels
// between Shutdown and Close, without any shard lock — and what Leave
// leaves behind is a husk: no kernels, no metrics, Close a no-op.
// Part of the lifecycle suite (internal/server/lifecycle_test.go).
func TestLifecycleNodeLeave(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	const nfiles, blocks = 16, 2
	cl := NewClient(tc.members)
	names := writeFiles(t, cl, nfiles, blocks)
	cl.Close()

	leaver, stayer := tc.members[0], tc.members[1]
	ring := NewRing(tc.members)
	var moved []string
	for _, name := range names {
		if ring.Owner(name) == leaver {
			moved = append(moved, name)
		}
	}
	if len(moved) == 0 {
		t.Fatalf("no file of %d hashed to the leaver", nfiles)
	}
	if err := tc.leave(leaver); err != nil {
		t.Fatalf("planned leave: %v", err)
	}

	// Flushed: every block the leaver held dirty is on the origin.
	dst := make([]byte, disk.BlockSize)
	for _, name := range moved {
		for b := int32(0); b < blocks; b++ {
			if err := readOrigin(t, tc.dir, name, b, dst); err != nil || !bytes.Equal(dst, blockPattern(name, b)) {
				t.Errorf("%s/%d not on the origin after the leave (err %v)", name, b, err)
			}
		}
	}
	// Handed off: each name opens on the survivor, which reads its
	// bytes from the origin.
	c := dialMember(t, stayer)
	defer c.Close()
	for _, name := range moved {
		f, err := c.Open(name)
		if err != nil {
			t.Fatalf("open %s on the survivor: %v", name, err)
		}
		for b := int32(0); b < blocks; b++ {
			if _, err := c.ReadInto(f.ID, b, 0, disk.BlockSize, dst); err != nil {
				t.Fatalf("read %s/%d on the survivor: %v", name, b, err)
			}
			if !bytes.Equal(dst, blockPattern(name, b)) {
				t.Errorf("%s/%d on the survivor: wrong bytes", name, b)
			}
		}
	}
	// A husk.
	srv := tc.nodes[leaver].Srv
	if _, ok := srv.Metrics(); ok {
		t.Error("Metrics on the departed node: ok")
	}
	if got := srv.LiveFiles(); got != nil {
		t.Errorf("the departed node still enumerates %d files", len(got))
	}
	if err := srv.Close(); err != nil {
		t.Errorf("a second Close on the departed node: %v", err)
	}
}
