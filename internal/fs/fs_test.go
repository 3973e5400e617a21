package fs

import (
	"fmt"
	"testing"
	"testing/quick"
)

func newFS(t *testing.T, caps ...int) *FileSystem {
	t.Helper()
	if len(caps) == 0 {
		caps = []int{10000}
	}
	return New(Config{DiskBlocks: caps})
}

func TestCreateAndLookup(t *testing.T) {
	f := newFS(t)
	a, err := f.Create(7, "a", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "a" || a.Size() != 100 || a.Disk() != 0 || a.ID() != 7 {
		t.Errorf("bad file: %+v", a)
	}
	got, ok := f.Lookup("a")
	if !ok || got != a {
		t.Error("Lookup failed")
	}
	byID, ok := f.ByID(a.ID())
	if !ok || byID != a {
		t.Error("ByID failed")
	}
	if _, ok := f.Lookup("missing"); ok {
		t.Error("Lookup found a missing file")
	}
}

func TestCreateErrors(t *testing.T) {
	f := newFS(t)
	if _, err := f.Create(1, "a", 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(2, "a", 0, 10); err == nil {
		t.Error("duplicate create succeeded")
	}
	if _, err := f.Create(3, "b", 5, 10); err == nil {
		t.Error("create on missing disk succeeded")
	}
	if _, err := f.Create(4, "c", 0, -1); err == nil {
		t.Error("negative size create succeeded")
	}
	if _, err := f.Create(1, "d", 0, 10); err == nil {
		t.Error("create under a taken id succeeded")
	}
	if _, err := f.Create(NoFile, "e", 0, 10); err == nil {
		t.Error("create under NoFile succeeded")
	}
	if _, err := f.Create(5, "huge", 0, 1<<30); err == nil {
		t.Error("over-capacity create succeeded")
	}
}

func TestSequentialPlacement(t *testing.T) {
	// A file created alone should be fully contiguous: block addresses
	// increase by one.
	f := newFS(t)
	a, _ := f.Create(1, "a", 0, 200)
	for i := 1; i < 200; i++ {
		if a.BlockAddr(i) != a.BlockAddr(i-1)+1 {
			t.Fatalf("file not contiguous at block %d", i)
		}
	}
}

func TestBlockAddrOutOfRangePanics(t *testing.T) {
	f := newFS(t)
	a, _ := f.Create(1, "a", 0, 10)
	for _, blk := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BlockAddr(%d) did not panic", blk)
				}
			}()
			a.BlockAddr(blk)
		}()
	}
}

func TestInterleavedGrowth(t *testing.T) {
	// Two files grown alternately interleave their extents, as real
	// allocators do for concurrently written files.
	const eb = extentBlocks
	f := New(Config{DiskBlocks: []int{100000}})
	a, _ := f.Create(1, "a", 0, 0)
	b, _ := f.Create(2, "b", 0, 0)
	for i := 1; i <= 5; i++ {
		if err := f.Grow(a, i*eb); err != nil {
			t.Fatal(err)
		}
		if err := f.Grow(b, i*eb); err != nil {
			t.Fatal(err)
		}
	}
	if a.Size() != 5*eb || b.Size() != 5*eb {
		t.Fatalf("sizes %d, %d; want %d each", a.Size(), b.Size(), 5*eb)
	}
	// a's second extent must land after b's first: interleaving.
	if a.BlockAddr(eb) < b.BlockAddr(0) {
		t.Error("growth did not interleave")
	}
	// Within each file addresses must be strictly increasing per extent
	// and unique across both files.
	seen := map[int]bool{}
	for _, file := range []*File{a, b} {
		for i := 0; i < file.Size(); i++ {
			addr := file.BlockAddr(i)
			if seen[addr] {
				t.Fatalf("address %d allocated twice", addr)
			}
			seen[addr] = true
		}
	}
}

func TestGrowNoShrink(t *testing.T) {
	f := newFS(t)
	a, _ := f.Create(1, "a", 0, 50)
	if err := f.Grow(a, 20); err != nil {
		t.Errorf("no-op grow errored: %v", err)
	}
	if a.Size() != 50 {
		t.Errorf("grow shrank file to %d", a.Size())
	}
}

func TestRemoveAndReuse(t *testing.T) {
	f := New(Config{DiskBlocks: []int{100}})
	a, _ := f.Create(1, "a", 0, 60)
	if _, err := f.Create(2, "big", 0, 60); err == nil {
		t.Fatal("expected disk-full error")
	}
	if err := f.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if !a.Removed() {
		t.Error("Removed() false after remove")
	}
	if _, ok := f.Lookup("a"); ok {
		t.Error("removed file still visible")
	}
	if _, ok := f.ByID(a.ID()); ok {
		t.Error("removed file still visible by ID")
	}
	// The freed space is reusable.
	if _, err := f.Create(3, "b", 0, 90); err != nil {
		t.Errorf("space not reclaimed: %v", err)
	}
	if err := f.Remove("a"); err == nil {
		t.Error("double remove succeeded")
	}
	if err := f.Grow(a, 100); err == nil {
		t.Error("grow of removed file succeeded")
	}
}

func TestFreeListCoalesces(t *testing.T) {
	f := New(Config{DiskBlocks: []int{1000}})
	var files []*File
	for i := 0; i < 5; i++ {
		fl, _ := f.Create(FileID(i+1), string(rune('a'+i)), 0, 10)
		files = append(files, fl)
	}
	_ = files
	for _, n := range []string{"b", "d", "c"} { // c joins b and d
		if err := f.Remove(n); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.FreeExtents(0); got != 1 {
		t.Errorf("free list has %d extents after coalescing, want 1", got)
	}
	// The coalesced 30-block hole is usable as a single file region.
	g, err := f.Create(6, "g", 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if g.BlockAddr(0) != 10 {
		t.Errorf("reused hole starts at %d, want 10", g.BlockAddr(0))
	}
}

func TestUsedAccounting(t *testing.T) {
	f := newFS(t, 500, 500)
	f.Create(1, "a", 0, 100)
	f.Create(2, "b", 1, 200)
	if f.Used(0) != 100 || f.Used(1) != 200 {
		t.Errorf("Used = %d, %d; want 100, 200", f.Used(0), f.Used(1))
	}
	f.Remove("a")
	if f.Used(0) != 0 {
		t.Errorf("Used(0) = %d after remove, want 0", f.Used(0))
	}
	if f.Disks() != 2 {
		t.Errorf("Disks = %d, want 2", f.Disks())
	}
}

func TestIDsNeverReused(t *testing.T) {
	f := newFS(t)
	a, _ := f.Create(1, "a", 0, 10)
	f.Remove("a")
	if _, err := f.Create(a.ID(), "a", 0, 10); err == nil {
		t.Error("FileID reused after remove")
	}
	if b, err := f.Create(a.ID()+1, "a", 0, 10); err != nil || b.ID() != a.ID()+1 {
		t.Errorf("create under the next id: %v, %v", b, err)
	}
}

// TestFilesLiveInIDOrder: Files yields the live files only, oldest
// first, a re-created name at its new id; breaking out stops it.
func TestFilesLiveInIDOrder(t *testing.T) {
	f := newFS(t)
	for i, name := range []string{"c", "a", "b", "d"} {
		if _, err := f.Create(FileID(i+1), name, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	f.Remove("a")
	f.Remove("d")
	f.Create(5, "a", 0, 1)
	var got []string
	var ids []FileID
	for g := range f.Files() {
		got = append(got, g.Name())
		ids = append(ids, g.ID())
	}
	if fmt.Sprint(got) != "[c b a]" {
		t.Errorf("Files = %v, want [c b a]", got)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Errorf("ids not ascending: %v", ids)
		}
	}
	n := 0
	for range f.Files() {
		n++
		break
	}
	if n != 1 {
		t.Errorf("break after the first file yielded %d", n)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{}, {DiskBlocks: []int{0}}, {DiskBlocks: []int{-5}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: however files are created, grown and removed, no two live files
// ever map different blocks to the same disk address, and every address is
// within capacity.
func TestQuickNoOverlap(t *testing.T) {
	type op struct {
		Kind byte
		Arg  uint8
	}
	// Sizes are in quarter extents, so a file spans up to 16 extents.
	const q = extentBlocks / 4
	check := func(ops []op) bool {
		f := New(Config{DiskBlocks: []int{5000 * q}})
		var live []*File
		n := 0
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0: // create
				name := string(rune('A' + n%64))
				n++
				if fl, err := f.Create(FileID(n), name, 0, int(o.Arg)%64*q); err == nil {
					live = append(live, fl)
				}
			case 1: // grow
				if len(live) > 0 {
					fl := live[int(o.Arg)%len(live)]
					_ = f.Grow(fl, fl.Size()+int(o.Kind)%32*q)
				}
			case 2: // remove
				if len(live) > 0 {
					i := int(o.Arg) % len(live)
					_ = f.Remove(live[i].Name())
					live = append(live[:i], live[i+1:]...)
				}
			}
		}
		seen := map[int]bool{}
		for _, fl := range live {
			for i := 0; i < fl.Size(); i++ {
				a := fl.BlockAddr(i)
				if a < 0 || a >= 5000*q || seen[a] {
					return false
				}
				seen[a] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
