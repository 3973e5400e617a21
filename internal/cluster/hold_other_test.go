//go:build !(linux && (amd64 || arm64))

package cluster

import (
	"net"
	"testing"
)

// listenHeld is a plain listener where the Linux port hold (see
// hold_linux_test.go) is not available.
func listenHeld(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
