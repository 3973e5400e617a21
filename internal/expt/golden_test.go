package expt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"testing"
)

// TestGoldenTables renders every experiment and hashes its tables
// against GoldenTables: no table byte moves unless the golden file moves
// with it. Under -short or -race it renders the quick ones only.
func TestGoldenTables(t *testing.T) {
	golden := GoldenTables()
	ids := slices.Sorted(maps.Keys(Experiments))
	for _, id := range ids {
		if len(golden[id]) != hex.EncodedLen(sha256.Size) {
			t.Errorf("no golden hash for %s", id)
		}
	}
	if len(golden) != len(ids) {
		t.Errorf("%d golden hashes for %d experiments", len(golden), len(ids))
	}
	if testing.Short() || raceEnabled {
		ids = []string{"table1", "table2", "table3", "table4", "vm"}
	}
	r := NewRunner(0)
	for _, id := range ids {
		var out bytes.Buffer
		for _, tb := range Experiments[id](r) {
			tb.Render(&out)
		}
		if sum := sha256.Sum256(out.Bytes()); hex.EncodeToString(sum[:]) != golden[id] {
			t.Errorf("%s hashes to %x, golden says %s", id, sum, golden[id])
		}
	}
}
