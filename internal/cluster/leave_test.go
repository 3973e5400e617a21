package cluster

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
)

// ownedName returns the first name prefix+i (i = 0, 1, ...) that ring
// gives to member m.
func ownedName(ring *Ring, m, prefix string) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("%s%d", prefix, i); ring.Owner(name) == m {
			return name
		}
	}
}

// overfill writes 16-block files that ring gives to member m, through
// cl, until every shard of m has evicted more blocks than its whole
// cache holds since the call, and returns their names.
func overfill(t *testing.T, tc *testCluster, cl *Client, ring *Ring, m string) []string {
	t.Helper()
	evictions := func() []int64 {
		t.Helper()
		mt, ok := tc.nodes[m].Srv.Metrics()
		if !ok {
			t.Fatalf("Metrics: %s is down", m)
		}
		ev := make([]int64, len(mt.Shards))
		for i, sh := range mt.Shards {
			ev[i] = sh.Kernel.Cache.Evictions
		}
		return ev
	}
	base := evictions()
	cacheBlocks := int64(core.MB(1) / disk.BlockSize)
	var names []string
	for over := false; !over; {
		if len(names) > 512 {
			t.Fatal("the fillers never evicted a whole cache in every shard")
		}
		name := ownedName(ring, m, fmt.Sprintf("filler%d-", len(names)))
		f, err := cl.Create(name, 0, 16)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		for b := int32(0); b < 16; b++ {
			if _, err := cl.Write(f.ID, b, 0, blockPattern(name, b)); err != nil {
				t.Fatalf("write %s/%d: %v", name, b, err)
			}
		}
		names = append(names, name)
		over = true
		for i, ev := range evictions() {
			over = over && ev-base[i] > cacheBlocks
		}
	}
	return names
}

// TestClusterLeaveHandsOffEveryName: a planned leave hands over every
// file the leaver knows, not only those it holds cached blocks of. The
// leaver owns one file created and never written, one whose blocks all
// went from its cache to later writes, and one fully cached; after the
// leave a fresh client opens each on its new owner at its original size
// and reads every written block back and every other block as zeros.
func TestClusterLeaveHandsOffEveryName(t *testing.T) {
	tc := startTestCluster(t, 3, NewMemOrigin())
	leaver := tc.members[0]
	ring := NewRing(tc.members)
	cl := NewClient(tc.members)

	type want struct {
		name           string
		size, nwritten int
	}
	create := func(prefix string, size, nwritten int) want {
		t.Helper()
		name := ownedName(ring, leaver, prefix)
		f, err := cl.Create(name, 0, size)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		for b := int32(0); b < int32(nwritten); b++ {
			if _, err := cl.Write(f.ID, b, 0, blockPattern(name, b)); err != nil {
				t.Fatalf("write %s/%d: %v", name, b, err)
			}
		}
		return want{name, size, nwritten}
	}
	blank := create("blank", 4, 0)
	evicted := create("evicted", 8, 8)
	// Write other files of the leaver until every shard has evicted more
	// blocks than the whole cache holds, then remove them: what is left
	// cached is what outlived them.
	fillers := overfill(t, tc, cl, ring, leaver)
	for _, name := range fillers {
		if err := cl.Remove(name); err != nil {
			t.Fatalf("remove %s: %v", name, err)
		}
	}
	if m, _ := tc.nodes[leaver].Srv.Metrics(); m.CachedBlocks != 0 {
		t.Fatalf("the leaver still caches %d blocks; %s must have none", m.CachedBlocks, evicted.name)
	}
	cached := create("cached", 4, 4)
	cl.Close()

	if err := tc.leave(leaver); err != nil {
		t.Fatalf("planned leave: %v", err)
	}
	fresh := NewClient(tc.members)
	defer fresh.Close()
	dst := make([]byte, disk.BlockSize)
	zeros := make([]byte, disk.BlockSize)
	for _, w := range []want{blank, evicted, cached} {
		f, err := fresh.Open(w.name)
		if err != nil {
			t.Errorf("open %s after the leave: %v", w.name, err)
			continue
		}
		if f.Size != w.size {
			t.Errorf("%s opens at %d blocks, want %d", w.name, f.Size, w.size)
		}
		for b := int32(0); b < int32(w.size); b++ {
			if _, err := fresh.ReadInto(f.ID, b, 0, disk.BlockSize, dst); err != nil {
				t.Fatalf("read %s/%d: %v", w.name, b, err)
			}
			exp := zeros
			if b < int32(w.nwritten) {
				exp = blockPattern(w.name, b)
			}
			if !bytes.Equal(dst, exp) {
				t.Errorf("%s/%d: wrong bytes after the leave", w.name, b)
			}
		}
	}
}

// countingOrigin counts the blocks the origin is asked to write.
type countingOrigin struct {
	*MemOrigin
	blocks atomic.Int64
}

func (o *countingOrigin) WriteRun(name string, start int32, srcs [][]byte) error {
	o.blocks.Add(int64(len(srcs)))
	return o.MemOrigin.WriteRun(name, start, srcs)
}

// TestClusterLeaveWritesEachBlockOnce: blocks written once through the
// routing client reach the origin once each, across a planned leave and
// the survivors' clean shutdown. The leave flushes the leaver's dirty
// blocks and moves no block, so no survivor holds a second dirty copy.
func TestClusterLeaveWritesEachBlockOnce(t *testing.T) {
	origin := &countingOrigin{MemOrigin: NewMemOrigin()}
	tc := startTestCluster(t, 3, origin)
	const nfiles, blocks = 24, 4
	cl := NewClient(tc.members)
	names := writeFiles(t, cl, nfiles, blocks)
	cl.Close()

	leaver := tc.members[0]
	ring := NewRing(tc.members)
	moved := 0
	for _, name := range names {
		if ring.Owner(name) == leaver {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("no file of %d hashed to the leaver; enlarge nfiles", nfiles)
	}
	if err := tc.leave(leaver); err != nil {
		t.Fatalf("planned leave: %v", err)
	}
	tc.shutdownAll()
	if got := origin.blocks.Load(); got != nfiles*blocks {
		t.Errorf("the origin took %d block writes for %d blocks written once (%d moved in the leave)",
			got, nfiles*blocks, moved*blocks)
	}
}

// TestClusterJoinLeaveNotStale: a node that joins, takes files over,
// rewrites their blocks and leaves again hands the files back to their
// previous owners, which still cache the blocks as they were before the
// join. A fresh client reads the rewrites there, never those older
// copies: block 0, which the joiner rewrote and then evicted, and block
// 1, which it still caches at the leave.
func TestClusterJoinLeaveNotStale(t *testing.T) {
	tc := startTestCluster(t, 2, NewMemOrigin())
	cl := NewClient(tc.members)
	names := writeFiles(t, cl, 24, 2) // v1, cached on the old owners
	cl.Close()

	joiner := tc.join(listenHeld(t))
	moved := joinerFiles(t, names, tc.members, joiner.Self)
	cl2 := NewClient(tc.members)
	v2 := func(name string, b int32) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%s#%d|v2|", name, b)), disk.BlockSize)[:disk.BlockSize]
	}
	rewrite := func(b int32) {
		t.Helper()
		for _, name := range moved {
			f, err := cl2.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl2.Write(f.ID, b, 0, v2(name, b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rewrite(0)
	overfill(t, tc, cl2, NewRing(tc.members), joiner.Self)
	rewrite(1)
	cl2.Close()
	if err := tc.leave(joiner.Self); err != nil {
		t.Fatalf("planned leave: %v", err)
	}

	fresh := NewClient(tc.members)
	defer fresh.Close()
	dst := make([]byte, disk.BlockSize)
	for _, name := range moved {
		f, err := fresh.Open(name)
		if err != nil {
			t.Fatalf("open %s after the leave: %v", name, err)
		}
		for b := int32(0); b < 2; b++ {
			if _, err := fresh.ReadInto(f.ID, b, 0, disk.BlockSize, dst); err != nil {
				t.Fatalf("read %s/%d: %v", name, b, err)
			}
			if want := v2(name, b); !bytes.Equal(dst, want) {
				t.Errorf("%s/%d after the leave: %.24q, want %.24q", name, b, dst, want)
			}
		}
	}
}
