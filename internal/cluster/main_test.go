package cluster

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if a goroutine of the server or of this
// package outlives the tests: a node that has left, or a cluster a test
// has shut down, must leave nothing running.
func TestMain(m *testing.M) {
	leakcheck.Main(m, "repro/internal/server.", "repro/internal/cluster.")
}
