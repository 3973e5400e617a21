package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
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
// a one-node cluster over each origin: the first foo's blocks reach the
// origin, foo is removed, and a new foo of the same size — no block of it
// written yet — reads as zeros, at once and after the discard has landed;
// what the new foo then writes survives the old one's discard, in the
// cache and on the origin.
func TestClusterRecreatedNameReadsZeros(t *testing.T) {
	const (
		cacheBlocks = 16 // two shards of eight
		blocks      = 4 * cacheBlocks
	)
	dir, err := NewDirOrigin(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		name   string
		origin Origin
	}{{"mem", NewMemOrigin()}, {"dir", dir}} {
		t.Run(o.name, func(t *testing.T) {
			ln := listenHeld(t)
			self := "tcp:" + ln.Addr().String()
			node, err := NewNode(NodeConfig{
				Self:    self,
				Members: []string{self},
				Origin:  o.origin,
				Server: server.Config{
					Kernel:          core.LiveConfig{CacheBytes: cacheBlocks * core.BlockSize, Alloc: cache.LRUSP},
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
				if err := readOrigin(o.origin, "foo", 0, got); err != nil {
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
				if err := readOrigin(o.origin, "foo", blk, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, second(blk)) {
					t.Fatalf("origin after close: block %d of foo reads %q..", blk, got[:16])
				}
			}
		})
	}
}

// TestClusterRemoveUnwrittenLeavesNoFile: a remove gives back the
// file's whole extent even when no block of it ever reached the store —
// a temporary removed while its only write is still cached, or a file
// never written at all. Over a DirOrigin such a discard makes no file:
// the directory holds only the names that exist.
func TestClusterRemoveUnwrittenLeavesNoFile(t *testing.T) {
	dirPath := t.TempDir()
	dir, err := NewDirOrigin(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	tc := startTestCluster(t, 1, dir)
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
	ents, err := os.ReadDir(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("the origin keeps %q after every file was removed", e.Name())
	}
}

// TestOriginDiscard: both origins take a nil source as a discard, alone
// and inside a run, and a discarded block reads as never written. A
// discard of a whole file's extent, as a remove sends, leaves nothing of
// the name: no key in a MemOrigin, no file (or an empty one) in a
// DirOrigin. A discard of a name never written makes no file.
func TestOriginDiscard(t *testing.T) {
	dirPath := t.TempDir()
	dir, err := NewDirOrigin(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemOrigin()
	zeros := make([]byte, disk.BlockSize)
	for _, o := range []struct {
		name   string
		origin Origin
	}{{"mem", mem}, {"dir", dir}} {
		t.Run(o.name, func(t *testing.T) {
			srcs := make([][]byte, 6)
			for i := range srcs {
				srcs[i] = blockPattern("f", int32(i))
			}
			if err := o.origin.WriteRun("f", 0, srcs); err != nil {
				t.Fatal(err)
			}
			// Discard 0 alone and 2, 3 in a run that rewrites 1 and 4.
			if err := o.origin.WriteRun("f", 0, [][]byte{nil}); err != nil {
				t.Fatal(err)
			}
			fresh := blockPattern("fresh", 1)
			if err := o.origin.WriteRun("f", 1, [][]byte{fresh, nil, nil, fresh}); err != nil {
				t.Fatal(err)
			}
			if err := o.origin.WriteRun("never", 3, [][]byte{nil}); err != nil {
				t.Fatalf("discard in a file never written: %v", err)
			}
			if err := o.origin.WriteRun("ghost", 0, make([][]byte, 8)); err != nil {
				t.Fatalf("whole-file discard of a name never written: %v", err)
			}
			dsts := make([][]byte, 6)
			for i := range dsts {
				dsts[i] = bytes.Repeat([]byte{0xff}, disk.BlockSize)
			}
			if err := o.origin.ReadRun("f", 0, dsts); err != nil {
				t.Fatal(err)
			}
			for i, want := range [][]byte{zeros, fresh, zeros, zeros, fresh, srcs[5]} {
				if !bytes.Equal(dsts[i], want) {
					t.Errorf("block %d reads %q.., want %q..", i, dsts[i][:8], want[:8])
				}
			}

			// The whole extent of an 8-block file with 6 blocks written.
			if err := o.origin.WriteRun("whole", 0, srcs); err != nil {
				t.Fatal(err)
			}
			if err := o.origin.WriteRun("whole", 0, make([][]byte, 8)); err != nil {
				t.Fatal(err)
			}
			if err := o.origin.ReadRun("whole", 0, dsts); err != nil {
				t.Fatal(err)
			}
			for i := range dsts {
				if !bytes.Equal(dsts[i], zeros) {
					t.Errorf("block %d of the discarded whole file reads %q..", i, dsts[i][:8])
				}
			}
		})
	}
	if got := mem.Blocks(); got != 3 {
		t.Errorf("MemOrigin holds %d blocks, want the 3 not discarded", got)
	}
	for _, k := range mem.Keys() {
		if strings.HasPrefix(k, "whole\x00") {
			t.Errorf("MemOrigin keeps key %q of the discarded whole file", k)
		}
	}
	for _, name := range []string{"never", "ghost"} {
		if _, err := os.Stat(filepath.Join(dirPath, name)); !os.IsNotExist(err) {
			t.Errorf("DirOrigin has a file for %s, which was only ever discarded (stat: %v)", name, err)
		}
	}
	if fi, err := os.Stat(filepath.Join(dirPath, "whole")); err == nil && fi.Size() != 0 {
		t.Errorf("DirOrigin keeps %d bytes of the discarded whole file", fi.Size())
	} else if err != nil && !os.IsNotExist(err) {
		t.Error(err)
	}
}
