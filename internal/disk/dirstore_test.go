package disk

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// newTestDirStore is a DirStore over a fresh directory with each of
// files announced, file id i as "f<i>".
func newTestDirStore(t *testing.T, files ...int32) *DirStore {
	t.Helper()
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		d.Announce(f, fmt.Sprint("f", f))
	}
	return d
}

// TestDirStoreNames: every name is a regular file of its own inside the
// directory — "", "." and "..", which percent-escaping leaves as they
// are and which name the directory or its parent, and the names their
// mapping could be confused with, included. Each reads back its own
// block, and once each is discarded whole the directory is still there,
// empty.
func TestDirStoreNames(t *testing.T) {
	names := []string{"", ".", "..", ".x", "%", "%.", "%2E", "a/b", "plain"}
	d := newTestDirStore(t)
	for i, name := range names {
		d.Announce(int32(i), name)
		if err := d.WriteBlock(int32(i), 0, bytes.Repeat([]byte{byte(i + 1)}, BlockSize)); err != nil {
			t.Fatalf("write %q: %v", name, err)
		}
	}
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(names) {
		t.Errorf("%d files for %d names", len(ents), len(names))
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			t.Errorf("%q is not a regular file", e.Name())
		}
	}
	for i, name := range names {
		if got := mustRead(t, d, int32(i), 0); got[0] != byte(i+1) {
			t.Errorf("%q reads the block of %q", name, names[got[0]-1])
		}
		if err := d.WriteBlock(int32(i), 0, nil); err != nil {
			t.Fatalf("discard %q: %v", name, err)
		}
	}
	if ents, err := os.ReadDir(d.dir); err != nil || len(ents) != 0 {
		t.Errorf("after every name's discard: %d files, %v; want the directory, empty", len(ents), err)
	}
}

// TestDirStoreUnannounced: a block of a file id no one announced fails,
// alone — the span beside it in the batch still lands.
func TestDirStoreUnannounced(t *testing.T) {
	d := newTestDirStore(t, 1)
	a := bytes.Repeat([]byte{0xa1}, BlockSize)
	errs := d.WriteBlocks([]BlockSpan{{1, 0}, {2, 0}}, [][]byte{a, a})
	if errs[0] != nil || errs[1] == nil {
		t.Errorf("write of an announced and an unannounced file: %v, want [nil, non-nil]", errs)
	}
	if err := d.ReadBlock(2, 0, make([]byte, BlockSize)); err == nil {
		t.Error("read of an unannounced file succeeded")
	}
	if !bytes.Equal(mustRead(t, d, 1, 0), a) {
		t.Error("the announced file's block did not land")
	}
}
