package cluster

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
)

// TestClusterRecreatedNameReadsZeros: the origin is keyed by file name,
// the one coordinate every node agrees on, so a name that is removed and
// created again addresses the blocks its previous holder wrote back. On
// a one-node cluster: the first foo's blocks reach the origin, foo is
// removed, and a new foo of the same size — no block of it written yet
// — reads as zeros, at once and after the discard has landed; what the
// new foo then writes survives the old one's discard, in the cache and
// on the origin. The origin is the directory store acfcd builds.
func TestClusterRecreatedNameReadsZeros(t *testing.T) {
	t.Run("dir", recreatedNameReadsZeros)
}

func recreatedNameReadsZeros(t *testing.T) {
	const (
		cacheBlocks = 16 // two shards of eight
		blocks      = 4 * cacheBlocks
	)
	dir := t.TempDir()
	ln := listenHeld(t)
	self := "tcp:" + ln.Addr().String()
	node, err := NewNode(NodeConfig{
		Self:    self,
		Members: []string{self},
		Server: server.Config{
			Kernel: core.LiveConfig{CacheBytes: cacheBlocks * core.BlockSize, Alloc: cache.LRUSP,
				Store: newDirStore(t, dir)},
			Shards:          2,
			WritebackDepth:  4,
			CheckInvariants: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go node.Srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := node.Srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := node.Srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()
	c := dialMember(t, self)
	defer c.Close()

	first := func(blk int32) []byte { return blockPattern("first life", blk) }
	second := func(blk int32) []byte { return blockPattern("second life", blk) }
	zeros := make([]byte, disk.BlockSize)
	got := make([]byte, disk.BlockSize)

	f, err := c.Create("foo", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for blk := int32(0); blk < blocks; blk++ {
		if _, err := c.Write(f.ID, blk, 0, first(blk)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for { // block 0 went out long ago; wait for write-behind to land it
		if err := readOrigin(t, dir, "foo", 0, got); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, first(0)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first foo's block 0 never reached the origin")
		}
		time.Sleep(time.Millisecond)
	}

	if err := c.Remove("foo"); err != nil {
		t.Fatal(err)
	}
	g, err := c.Create("foo", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	readAll := func(when string, want func(int32) []byte) {
		t.Helper()
		for blk := int32(0); blk < blocks; blk++ {
			if _, err := c.ReadInto(g.ID, blk, 0, disk.BlockSize, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want(blk)) {
				t.Fatalf("%s: block %d of the new foo reads %q..", when, blk, got[:16])
			}
		}
	}
	readAll("just re-created", func(int32) []byte { return zeros })
	for { // the old foo's discard has landed when nothing is in flight
		m, ok := node.Srv.Metrics()
		if !ok {
			t.Fatal("Metrics not ok on a running server")
		}
		if m.WritebacksInflight == 0 {
			if m.Kernel.Fill.DiscardedBlocks == 0 {
				t.Error("nothing was discarded")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the write-behind queue never emptied")
		}
		time.Sleep(time.Millisecond)
	}
	readAll("after the discard landed", func(int32) []byte { return zeros })

	for blk := int32(0); blk < blocks; blk++ {
		if _, err := c.Write(g.ID, blk, 0, second(blk)); err != nil {
			t.Fatal(err)
		}
	}
	readAll("second life", second)
	c.Close()
	stopped = true
	stop()
	for blk := int32(0); blk < blocks; blk++ {
		if err := readOrigin(t, dir, "foo", blk, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, second(blk)) {
			t.Fatalf("origin after close: block %d of foo reads %q..", blk, got[:16])
		}
	}
}

// TestClusterRemoveUnwrittenLeavesNoFile: a remove gives back the
// file's whole extent even when no block of it ever reached the store —
// a temporary removed while its only write is still cached, or a file
// never written at all. Such a discard makes no file: the origin
// directory holds only the names that exist.
func TestClusterRemoveUnwrittenLeavesNoFile(t *testing.T) {
	tc := startTestCluster(t, 1, nil)
	cl := NewClient(tc.members)
	defer cl.Close()
	f, err := cl.Create("tmp", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(f.ID, 0, 0, blockPattern("tmp", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create("empty", 1, 4); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tmp", "empty"} {
		if err := cl.Remove(name); err != nil {
			t.Fatalf("remove %s: %v", name, err)
		}
	}
	srv := tc.nodes[tc.members[0]].Srv
	waitWriteBehindIdle(t, srv)
	if m, _ := srv.Metrics(); m.Kernel.Fill.DiscardedBlocks != 12 {
		t.Errorf("%d blocks discarded, want the 12 of both extents", m.Kernel.Fill.DiscardedBlocks)
	}
	for _, e := range readDir(t, tc.dir) {
		t.Errorf("the origin keeps %q after every file was removed", e.Name())
	}
}

func readDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ents
}

// TestClusterDotNames: "." and "..", which percent-escaping leaves as
// they are and which name the origin directory and its parent, are each
// a regular file inside it. On a one-node cluster both are created and
// removed with no block written, while the directory is still empty;
// then created, written back, read back from the origin and removed
// again. The directory survives both rounds, holds one file for each
// name while they exist and none once they are gone. (The empty name,
// the third that escaping leaves alone, never reaches a node's store: a
// create of it is malformed. disk's TestDirStoreNames covers it.)
func TestClusterDotNames(t *testing.T) {
	tc := startTestCluster(t, 1, nil)
	srv := tc.nodes[tc.members[0]].Srv
	c := dialMember(t, tc.members[0])
	defer c.Close()
	if _, err := c.Create("", 0, 1); !hasStatus(err, server.StatusBadRequest) {
		t.Fatalf("create of the empty name: %v, want bad_request", err)
	}
	names := []string{".", ".."}
	removeAll := func(round string) {
		t.Helper()
		for _, name := range names {
			if err := c.Remove(name); err != nil {
				t.Fatalf("%s: remove %q: %v", round, name, err)
			}
		}
		waitWriteBehindIdle(t, srv)
		for _, e := range readDir(t, tc.dir) {
			t.Errorf("%s: the origin keeps %q after every file was removed", round, e.Name())
		}
	}

	for _, name := range names {
		if _, err := c.Create(name, 0, 1); err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
	}
	removeAll("never written")

	for _, name := range names {
		f, err := c.Create(name, 0, 1)
		if err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
		if _, err := c.Write(f.ID, 0, 0, blockPattern(name, 0)); err != nil {
			t.Fatalf("write %q: %v", name, err)
		}
		if err := c.Release(name); err != nil { // writes the block back and drops it
			t.Fatalf("write back %q: %v", name, err)
		}
	}
	ents := readDir(t, tc.dir)
	if len(ents) != len(names) {
		t.Errorf("the origin holds %d files for %d names", len(ents), len(names))
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			t.Errorf("the origin's %q is not a regular file", e.Name())
		}
	}
	dst := make([]byte, disk.BlockSize)
	for _, name := range names {
		f, err := c.Open(name)
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		if _, err := c.ReadInto(f.ID, 0, 0, disk.BlockSize, dst); err != nil {
			t.Fatalf("read %q: %v", name, err)
		}
		if !bytes.Equal(dst, blockPattern(name, 0)) {
			t.Errorf("%q reads %.16q.. from the origin", name, dst)
		}
	}
	removeAll("written back")
}
