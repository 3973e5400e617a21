// node.go — Node ties one acfcd server to the cluster: its base store
// is a disk.DirStore over the directory every node shares (the origin),
// and it owns the leave protocol, the paper's transfer-or-evict
// revocation applied to a whole cache: drain sessions, flush every dirty
// block to the origin, then hand each live file's name to its new hash
// owner. Unplanned death needs no protocol: clients fail over to the
// next ring owner, which fills from the origin the dead node had written
// behind to.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/server"
	"repro/internal/server/client"
)

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// Self is this node's member spec ("unix:/path" or "tcp:host:port")
	// — its name on the ring and the address clients dial.
	Self string
	// Members is the static membership list. Self is added if absent.
	Members []string
	// Server configures the embedded server. Kernel.Store is the origin:
	// a store addressed by file name, which is told every open's id and
	// name (Announce) — a disk.DirStore over the shared directory.
	// Required.
	Server server.Config
}

// Node is one member of the cluster: an acfcd server whose base store
// is the origin, and its view of the membership ring.
type Node struct {
	Self string
	Srv  *server.Server
	ring *Ring
}

// NewNode builds the node and starts its server.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: NodeConfig.Self required")
	}
	if _, ok := cfg.Server.Kernel.Store.(interface{ Announce(int32, string) }); !ok {
		return nil, errors.New("cluster: NodeConfig.Server.Kernel.Store must be addressed by name (Announce)")
	}
	members := cfg.Members
	if !slices.Contains(members, cfg.Self) {
		members = append(slices.Clip(members), cfg.Self)
	}
	return &Node{Self: cfg.Self, Srv: server.New(cfg.Server), ring: NewRing(members)}, nil
}

// Ring returns the node's view of the membership ring.
func (n *Node) Ring() *Ring { return n.ring }

// Leave retires the node. Ordering, each step a barrier for the next:
//
//  1. Shutdown drains sessions and shards past the drain barrier,
//     so no asynchronous fill or write-back is in flight (ctx bounds the
//     wait; on expiry the rest are severed and the drain forced).
//  2. FlushDirty persists every dirty block to the origin, so no new
//     owner can open a moved name before the origin holds its bytes.
//  3. The handoff opens every live file on its new hash owner (the ring
//     without this node), which first releases its own copy; see
//     handoff.
//  4. Close releases the kernels' stores.
//
// Leave returns the first error, but always runs every step. A grace
// expiry on the drain is not an error: idle clients are severed by
// design, and the drain barrier has still waited out every asynchronous
// fill and write-back before the flush runs.
func (n *Node) Leave(ctx context.Context) error {
	var firstErr error
	if err := n.Srv.Shutdown(ctx); err != nil &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		firstErr = err
	}
	if err := n.Srv.FlushDirty(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := n.handoff(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := n.Srv.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// handoff opens each of the retired server's live files on its new hash
// owner, one connection per owner, after the owner has released any
// copy it has (a join took the name from it, or a client failed over to
// it in the drain), so it serves the name from the origin. A name whose
// owner will not dial stays behind.
func (n *Node) handoff() error {
	rest := n.Ring().Without(n.Self)
	if rest.Len() == 0 {
		return nil
	}
	var firstErr error
	conns := make(map[string]*client.Conn) // owner -> session; nil: it would not dial
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for _, f := range n.Srv.LiveFiles() {
		owner := rest.Owner(f.Name())
		c, dialed := conns[owner]
		if !dialed {
			var err error
			if c, err = dial(owner); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("handoff dial %s: %w", owner, err)
			}
			conns[owner] = c
		}
		if c == nil {
			continue // dead owner: its names stay behind
		}
		err := c.Release(f.Name())
		if err == nil || notFound(err) {
			_, err = openOrCreate(c, f.Name(), f.Disk(), f.Size())
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("handoff %s to %s: %w", f.Name(), owner, err)
		}
	}
	return firstErr
}

// notFound reports whether err is the node saying it has no such file.
func notFound(err error) bool { return hasStatus(err, server.StatusNotFound) }

// hasStatus reports whether err is the node answering with status st.
func hasStatus(err error, st uint8) bool {
	se := (*client.StatusError)(nil)
	return errors.As(err, &se) && se.Status == st
}

// openOrCreate resolves name on c, creating it with the given shape when
// the node has never seen it: how a file arrives on the node a handoff,
// a failover or a join moves it to. A create that another session won
// between the two calls (several clients moving one file) opens the file
// that session made.
func openOrCreate(c *client.Conn, name string, disk, size int) (f client.File, err error) {
	if f, err = c.Open(name); !notFound(err) {
		return f, err
	}
	if f, err = c.Create(name, disk, size); hasStatus(err, server.StatusExists) {
		f, err = c.Open(name)
	}
	return f, err
}
