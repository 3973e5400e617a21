// node.go — Node ties one acfcd server to the cluster: it builds the
// NodeStore, hangs it under the server as the base store (which the
// server itself tells every file announcement), and owns the leave
// protocol. Leave generalizes the paper's transfer-or-evict revocation
// from block to node granularity: the transfer arm drains sessions,
// flushes every dirty block to the origin (so correctness never depends
// on what follows), then streams the cache contents — hottest blocks
// first — to their new hash owners over the same typed client the
// routing client uses; the evict arm flushes and stops. Unplanned death
// needs no protocol at all: clients redial the next ring owner, which
// pulls the working set back through cold from the origin the dead
// node had already written behind to.

package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fs"
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
	// Origin is the shared backing store. Required.
	Origin Origin
	// Server configures the embedded server. Kernel.Store is overwritten
	// — the cluster tier owns it.
	Server server.Config
}

// Node is one member of the cluster: an acfcd server whose base store
// is the cluster's NodeStore, and its view of the membership ring.
type Node struct {
	Self string
	Srv  *server.Server
	ring *Ring
}

// NewNode builds the node and starts its server's shard loops.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: NodeConfig.Self required")
	}
	if cfg.Origin == nil {
		return nil, errors.New("cluster: NodeConfig.Origin required")
	}
	members := cfg.Members
	found := false
	for _, m := range members {
		if m == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		members = append(append([]string(nil), members...), cfg.Self)
	}
	scfg := cfg.Server
	scfg.Kernel.Store = NewNodeStore(cfg.Origin)
	return &Node{Self: cfg.Self, Srv: server.New(scfg), ring: NewRing(members)}, nil
}

// Ring returns the node's view of the membership ring.
func (n *Node) Ring() *Ring { return n.ring }

// Leave retires the node. Ordering, each step a barrier for the next:
//
//  1. Shutdown drains sessions and shard loops past the drain barrier,
//     so no asynchronous fill or write-back is in flight (ctx bounds
//     the wait; on expiry remaining sessions are severed and the drain
//     completes force-mode).
//  2. FlushDirty persists every dirty block to the origin. After this
//     returns, zero data loss is already guaranteed — the rest is
//     warmth, not correctness.
//  3. With transfer set, the cache contents stream hottest-first to
//     each file's new hash owner (the ring without this node) as
//     ordinary create/write traffic, one connection per owner, closed
//     when the stream ends. A streaming failure downgrades the handoff
//     to the evict arm for the blocks it hadn't reached — their next
//     reader pulls them through from the origin instead.
//  4. Close releases the kernels' stores.
//
// Leave returns the first error, but always runs every step. A grace
// expiry on the drain is not an error: idle clients that never
// disconnect are severed by design, and the drain barrier has still
// waited out every asynchronous fill and write-back before the flush
// runs. No node holds a session on another, so with every client gone
// the drain does not wait for the grace.
func (n *Node) Leave(ctx context.Context, transfer bool) error {
	var firstErr error
	if err := n.Srv.Shutdown(ctx); err != nil &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		firstErr = err
	}
	if err := n.Srv.FlushDirty(); err != nil && firstErr == nil {
		firstErr = err
	}
	if transfer {
		if err := n.handoff(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := n.Srv.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// handoff streams the retired server's cached blocks to their new hash
// owners, hottest first, so an interrupted handoff still moved the
// blocks most worth moving.
func (n *Node) handoff() error {
	rest := n.Ring().Without(n.Self)
	if rest.Len() == 0 {
		return nil
	}
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	type remoteFile struct {
		id   fs.FileID
		skip bool // it would not open on its owner
	}
	conns := make(map[string]*client.Conn) // owner -> session; nil: it would not dial
	files := make(map[string]remoteFile)   // name -> the file on its owner
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for _, cb := range n.Srv.CachedContents() {
		owner := rest.Owner(cb.Name)
		c, dialed := conns[owner]
		if !dialed {
			rd, err := redial(owner, nil)
			if err == nil {
				c, err = rd.Get()
			}
			if err != nil {
				note(fmt.Errorf("handoff dial %s: %w", owner, err))
			}
			conns[owner] = c
		}
		if c == nil {
			continue // dead owner: skip its blocks
		}
		rf, ok := files[cb.Name]
		if !ok {
			f, err := openOrCreate(c, cb.Name, cb.Disk, cb.Size)
			if err != nil {
				note(fmt.Errorf("handoff open %s on %s: %w", cb.Name, owner, err))
			}
			rf = remoteFile{id: f.ID, skip: err != nil}
			files[cb.Name] = rf
		}
		if rf.skip {
			continue
		}
		if _, err := c.Write(rf.id, cb.Blk, 0, cb.Data); err != nil {
			note(fmt.Errorf("handoff write %s/%d to %s: %w", cb.Name, cb.Blk, owner, err))
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
// the node has never seen it: how a file arrives on the node a handoff
// or a failover moves it to. A create that another session won between
// the two calls (several clients failing over one file) opens the file
// that session made.
func openOrCreate(c *client.Conn, name string, disk, size int) (client.File, error) {
	f, err := c.Open(name)
	if notFound(err) {
		if f, err = c.Create(name, disk, size); hasStatus(err, server.StatusExists) {
			f, err = c.Open(name)
		}
	}
	return f, err
}
