package server_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// serverFrames matches every goroutine the server package runs or
// started: fill workers, write-behind batches at the store,
// session readers and writers, and a test's own `go srv.Serve(ln)`.
const serverFrames = "repro/internal/server."

// TestMain fails the package if a server goroutine outlives the tests:
// every test must stop the servers it starts, and a stopped server must
// leave nothing running.
func TestMain(m *testing.M) { leakcheck.Main(m, serverFrames) }
