//go:build amd64 || arm64

package cluster

import (
	"context"
	"net"
	"syscall"
	"testing"
)

// soReusePort is SO_REUSEPORT where Linux uses the generic socket
// option numbers (package syscall does not define it).
const soReusePort = 0xf

// listenHeld listens on a fresh loopback TCP port whose address stays
// bound, but not listening, after the listener closes, until the test
// ends. A departed node's address then refuses every dial, as a dead
// machine's would. Without the hold the port goes back to the kernel's
// ephemeral pool: a later listener (another node, an httptest server,
// a parallel package's test) can be handed it and answer as the dead
// member, and a dial to it can be given the same number as its source
// port and connect to itself.
//
// The hold is a second socket bound to the same port and never
// listened on. SO_REUSEPORT on both lets the two binds coexist; a bound
// port is never picked for a port-0 listener or an outgoing connection.
func listenHeld(t *testing.T) net.Listener {
	t.Helper()
	reusePort := func(fd int) error {
		return syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soReusePort, 1)
	}
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) { serr = reusePort(int(fd)) }); err != nil {
			return err
		}
		return serr
	}}
	ln, err := lc.Listen(context.Background(), "tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(hold) })
	addr := &syscall.SockaddrInet4{Port: ln.Addr().(*net.TCPAddr).Port, Addr: [4]byte{127, 0, 0, 1}}
	if err := reusePort(hold); err == nil {
		err = syscall.Bind(hold, addr)
	}
	if err != nil {
		ln.Close()
		t.Fatalf("hold %v: %v", ln.Addr(), err)
	}
	return ln
}

// TestHeldPortStaysDead: once a held listener closes, its address
// refuses dials and cannot be listened on again while the test runs.
func TestHeldPortStaysDead(t *testing.T) {
	ln := listenHeld(t)
	addr := ln.Addr().String()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial while listening: %v", err)
	}
	c.Close()
	ln.Close()
	for i := 0; i < 100; i++ {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			t.Fatalf("dial %d to the closed listener's address succeeded (local %v)", i, c.LocalAddr())
		}
	}
	if again, err := net.Listen("tcp", addr); err == nil {
		again.Close()
		t.Fatal("the closed listener's address could be listened on again")
	}
}
