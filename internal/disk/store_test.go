package disk

import (
	"bytes"
	"testing"
)

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	src := bytes.Repeat([]byte{0xab}, BlockSize)
	if err := m.WriteBlock(3, 7, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := m.ReadBlock(3, 7, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Error("read bytes differ from written")
	}
	// Unwritten blocks read as zeros, even into a dirty buffer.
	if err := m.ReadBlock(3, 8, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 || dst[BlockSize-1] != 0 {
		t.Error("unwritten block did not read as zeros")
	}
	if m.Blocks() != 1 {
		t.Errorf("Blocks() = %d, want 1", m.Blocks())
	}
}
