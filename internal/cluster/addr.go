// addr.go — node address specs, and the one way to reach the node behind
// one. A member is identified by the same "unix:/path" / "tcp:host:port"
// spec acfcd's -listen flag takes; the spec string doubles as the
// member's name on the hash ring, so routing and dialing agree by
// construction.

package cluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/server/client"
)

// dialTimeout bounds one dial of a member: how long a routing client
// waits on a node before it fails over, and a leave's handoff on a new
// owner before it skips that owner's names.
const dialTimeout = 2 * time.Second

// SplitAddr parses a member spec into (network, address) for net.Dial /
// net.Listen.
func SplitAddr(spec string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(spec, "unix:"):
		return "unix", strings.TrimPrefix(spec, "unix:"), nil
	case strings.HasPrefix(spec, "tcp:"):
		return "tcp", strings.TrimPrefix(spec, "tcp:"), nil
	}
	return "", "", fmt.Errorf("bad node address %q (want unix:/path or tcp:host:port)", spec)
}

// redial builds the reconnecting session to member spec — the one way
// the cluster tier reaches a node, whether as a routing client or as a
// leave's handoff: one bounded dial, one retry, and onConnect run on
// every fresh connection before it is handed out. Nothing is dialed
// until the first Get.
func redial(spec string, onConnect func(*client.Conn) error) (*client.Redialer[*client.Conn], error) {
	network, addr, err := SplitAddr(spec)
	if err != nil {
		return nil, err
	}
	return &client.Redialer[*client.Conn]{
		Dial:        func() (*client.Conn, error) { return client.Dial(network, addr) },
		DialTimeout: dialTimeout,
		Attempts:    2,
		OnConnect:   onConnect,
	}, nil
}
