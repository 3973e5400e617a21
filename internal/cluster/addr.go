// addr.go — the one way to reach a member. A member is identified by
// the same "unix:/path" / "tcp:host:port" spec acfcd's -listen flag
// takes (client.SplitAddr); the spec string doubles as the member's name
// on the hash ring, so routing and dialing agree by construction.

package cluster

import (
	"time"

	"repro/internal/server/client"
)

// retryDelay is the pause before a failed dial's one retry.
const retryDelay = 10 * time.Millisecond

// dialConn is client.Dial; a test scripts it.
var dialConn = client.Dial

// dial connects to member spec, whether as a routing client or as a
// leave's handoff: an attempt bounded by client.Dial's timeout, and one
// retry 10 ms after a failed one.
func dial(spec string) (*client.Conn, error) {
	network, addr, err := client.SplitAddr(spec)
	if err != nil {
		return nil, err
	}
	c, err := dialConn(network, addr)
	if err != nil {
		time.Sleep(retryDelay)
		c, err = dialConn(network, addr)
	}
	return c, err
}
