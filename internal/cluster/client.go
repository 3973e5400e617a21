// client.go — the cluster-aware client: the same one-method-per-op
// surface as client.Conn, with file→node routing in front. Every file
// name hashes to its owning node on the shared ring; the client keeps
// one session per node and hands callers synthetic file ids,
// because wire ids are a per-node encoding (two nodes give the same
// name different ids) and only the name — and therefore the synthetic
// id bound to it — is cluster-global.
//
// Failure handling is the unplanned-death half of the membership story,
// and it is one loop (onOwner): every routed op runs on the name's owner
// among the members not yet marked dead, and when that node stops
// answering (transport error, or the drain refusal a retiring server
// sends) its session is closed, it is marked dead for good, and the op
// runs again on the next owner —
// after re-resolving the file there (re-create with the remembered shape
// when the survivor has never seen it) — until a node answers or none is
// left. The survivor then pulls the blocks through cold from the origin
// — no coordination, no recovery protocol: the client fails over to the
// next owner, as the cluster design promises. A session is never
// reconnected, so each node's session state (manager mode, the policy
// table) is what this client's Control and set_policy calls set there.

package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/acm"
	"repro/internal/fs"
	"repro/internal/server/client"
)

// Client is a routing client over a static member list. Safe for one
// goroutine (like client.Conn, concurrency comes from many Clients).
type Client struct {
	mu     sync.Mutex // guards live/nodes/files/byName across the failover path
	live   *Ring      // the members not yet marked dead
	nodes  map[string]*client.Conn
	files  map[fs.FileID]*centry
	byName map[string]fs.FileID
	nextID fs.FileID
}

// centry is one synthetic file id's binding: the name (the routing
// key), the shape to re-create it with after a failover, and where it
// currently lives.
type centry struct {
	name    string
	disk    int
	size    int
	created bool // shape is known, re-create on failover is allowed
	addr    string
	remote  fs.FileID
}

// NewClient builds a client over members.
func NewClient(members []string) *Client {
	return &Client{
		live:   NewRing(members),
		nodes:  make(map[string]*client.Conn),
		files:  make(map[fs.FileID]*centry),
		byName: make(map[string]fs.FileID),
		nextID: 1,
	}
}

// alive returns the ring over the members not yet marked dead.
func (cl *Client) alive() *Ring {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.live
}

// markDead closes addr's session, if it has one, and takes addr off the
// live ring. Nothing dials a dead member again.
func (cl *Client) markDead(addr string) {
	cl.mu.Lock()
	if c, ok := cl.nodes[addr]; ok {
		c.Close()
		delete(cl.nodes, addr)
	}
	if cl.live.Has(addr) {
		cl.live = cl.live.Without(addr)
	}
	cl.mu.Unlock()
}

// conn returns the session to addr, dialing it on first use.
func (cl *Client) conn(addr string) (*client.Conn, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if c, ok := cl.nodes[addr]; ok {
		return c, nil
	}
	c, err := dial(addr)
	if err == nil {
		cl.nodes[addr] = c
	}
	return c, err
}

// retriable reports whether err means "this node is gone", not "this
// request is wrong": transport failures and drain refusals fail over;
// semantic statuses (not found, io, bad request) surface to the caller.
func retriable(err error) bool {
	if errors.Is(err, client.ErrRefused) || errors.Is(err, client.ErrRevoked) {
		return true
	}
	se := (*client.StatusError)(nil)
	return !errors.As(err, &se) // non-status error: the transport broke
}

var errNoMembers = errors.New("empty member list")

// onOwner runs op on name's hash owner among the live members and walks
// down the ring of survivors while the owner it tried is gone: a node
// that will not dial, or fails op retriably (the node a leaver handed a
// file to can die before this client next touches it), is marked dead
// and the next owner tried. It returns op's first success or
// non-retriable error, or, with no member left, the last failure.
func (cl *Client) onOwner(name string, op func(c *client.Conn, owner string) error) error {
	cause := errNoMembers
	for {
		owner := cl.alive().Owner(name)
		if owner == "" {
			return fmt.Errorf("cluster: no live nodes: %w", cause)
		}
		c, err := cl.conn(owner)
		if err == nil {
			if err = op(c, owner); err == nil || !retriable(err) {
				return err
			}
		}
		cl.markDead(owner)
		cause = err
	}
}

// do runs op against the file behind synthetic id f, on the node that
// owns its name now. When that is no longer the node the file is bound to
// — the failover: that node was marked dead, by this call's last attempt
// or under another file — it is first rebound to the new owner by opening
// it there, or, when its shape is known, creating it; a failure to
// resolve that is not the new owner being gone too surfaces.
func (cl *Client) do(f fs.FileID, op func(c *client.Conn, remote fs.FileID) error) error {
	cl.mu.Lock()
	e := cl.files[f]
	cl.mu.Unlock()
	if e == nil {
		return fmt.Errorf("cluster: unknown file id %d", f)
	}
	return cl.onOwner(e.name, func(c *client.Conn, owner string) error {
		if owner != e.addr {
			var moved client.File
			var err error
			if e.created {
				moved, err = openOrCreate(c, e.name, e.disk, e.size)
			} else {
				moved, err = c.Open(e.name)
			}
			if err != nil {
				if !retriable(err) {
					err = fmt.Errorf("cluster: failover of %s to %s: %w", e.name, owner, err)
				}
				return err
			}
			e.addr, e.remote = owner, moved.ID
		}
		return op(c, e.remote)
	})
}

// bind assigns (or reuses) the synthetic id for name.
func (cl *Client) bind(name string) (*centry, fs.FileID) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if id, ok := cl.byName[name]; ok {
		return cl.files[id], id
	}
	id := cl.nextID
	cl.nextID++
	e := &centry{name: name}
	cl.files[id] = e
	cl.byName[name] = id
	return e, id
}

// Open resolves name on its owning node.
func (cl *Client) Open(name string) (client.File, error) {
	var file client.File
	err := cl.onOwner(name, func(c *client.Conn, owner string) error {
		f, err := c.Open(name)
		moved := notFound(err)
		if moved {
			// The owner has never seen the name — it may have been
			// created before a join moved the name's hash owner here.
			f, err = cl.openThrough(c, name, owner, err)
		}
		if err != nil {
			return err
		}
		e, id := cl.bind(name)
		e.addr, e.remote, e.size, e.created = owner, f.ID, f.Size, e.created || moved
		file = client.File{ID: id, Size: f.Size}
		return nil
	})
	return file, err
}

// openThrough handles the join case: name hashes to owner (session oc),
// but was created before owner joined the ring. Every other live member
// that knows the file releases it — its dirty blocks reach the origin,
// none stays cached — and only then is the file opened or created on
// owner, with the largest block count any of them knew. A release keeps
// the name, so after successive joins several members know it and the
// one holding its blocks need not be the first; all of them release.
// When no member knows the name, missing comes back. A failed release
// surfaces with the member's status.
func (cl *Client) openThrough(oc *client.Conn, name, owner string, missing error) (client.File, error) {
	size, known := 0, false
	for _, m := range cl.alive().Members() {
		if m == owner {
			continue
		}
		c, err := cl.conn(m)
		if err != nil {
			continue
		}
		f, err := c.Open(name)
		if err == nil {
			err = c.Release(name)
		}
		if err != nil {
			if notFound(err) || retriable(err) {
				continue
			}
			return client.File{}, fmt.Errorf("cluster: release of %s on %s: %w", name, m, err)
		}
		size, known = max(size, f.Size), true
	}
	if !known {
		return client.File{}, missing
	}
	return openOrCreate(oc, name, 0, size)
}

// Create creates name on its owning node and remembers the shape, so a
// failover can re-create it on a survivor.
func (cl *Client) Create(name string, d, sizeBlocks int) (client.File, error) {
	var file client.File
	err := cl.onOwner(name, func(c *client.Conn, owner string) error {
		f, err := c.Create(name, d, sizeBlocks)
		if err != nil {
			return err
		}
		e, id := cl.bind(name)
		e.addr, e.remote = owner, f.ID
		e.disk, e.size, e.created = d, f.Size, true
		file = client.File{ID: id, Size: f.Size}
		return nil
	})
	return file, err
}

// Remove removes name on its owning node and forgets the name's binding:
// a synthetic id handed out for it is unknown from here on.
func (cl *Client) Remove(name string) error {
	e, id := cl.bind(name)
	if e.addr == "" {
		e.addr = cl.alive().Owner(name) // never opened here: nothing to resolve first
	}
	err := cl.do(id, func(c *client.Conn, _ fs.FileID) error {
		return c.Remove(name)
	})
	if err == nil {
		cl.mu.Lock()
		delete(cl.files, id)
		delete(cl.byName, name)
		cl.mu.Unlock()
	}
	return err
}

// Control toggles manager mode on every live node (sessions span all of
// them).
func (cl *Client) Control(enable bool) error {
	return cl.broadcast(func(c *client.Conn) error { return c.Control(enable) })
}

// broadcast runs op on every live member. A member that fails it
// retriably is marked dead; that failure surfaces only when no member is
// left, since the dead ones are failed over anyway. A refusal (a status
// such as no_control) leaves the member live and is returned, the first
// one if several refuse.
func (cl *Client) broadcast(op func(c *client.Conn) error) error {
	var refused, gone error
	for _, m := range cl.alive().Members() {
		c, err := cl.conn(m)
		if err == nil {
			err = op(c)
		}
		switch {
		case err == nil:
		case retriable(err):
			cl.markDead(m)
			gone = err
		case refused == nil:
			refused = err
		}
	}
	if refused == nil && cl.alive().Len() == 0 {
		return gone
	}
	return refused
}

// SetPriority sets a file's priority on the file's node.
func (cl *Client) SetPriority(f fs.FileID, prio int) error {
	return cl.do(f, func(c *client.Conn, remote fs.FileID) error { return c.SetPriority(remote, prio) })
}

// GetPriority reads a file's priority from the file's node.
func (cl *Client) GetPriority(f fs.FileID) (prio int, err error) {
	err = cl.do(f, func(c *client.Conn, remote fs.FileID) (err error) {
		prio, err = c.GetPriority(remote)
		return err
	})
	return prio, err
}

// SetPolicy sets a priority level's policy on every node.
func (cl *Client) SetPolicy(prio int, pol acm.Policy) error {
	return cl.broadcast(func(c *client.Conn) error { return c.SetPolicy(prio, pol) })
}

// GetPolicy reads a priority level's policy from any node: every one
// holds the session's table.
func (cl *Client) GetPolicy(prio int) (pol acm.Policy, err error) {
	err = cl.onOwner("", func(c *client.Conn, _ string) (err error) {
		pol, err = c.GetPolicy(prio)
		return err
	})
	return pol, err
}

// SetTempPri sets a temporary priority on a block range of a file, on
// the file's node.
func (cl *Client) SetTempPri(f fs.FileID, startBlk, endBlk int32, prio int) error {
	return cl.do(f, func(c *client.Conn, remote fs.FileID) error { return c.SetTempPri(remote, startBlk, endBlk, prio) })
}

// ReadInto reads one block range from the file's node.
func (cl *Client) ReadInto(f fs.FileID, blk int32, off, size int, dst []byte) (hit bool, err error) {
	err = cl.do(f, func(c *client.Conn, remote fs.FileID) (err error) {
		hit, err = c.ReadInto(remote, blk, off, size, dst)
		return err
	})
	return hit, err
}

// ReadNoData is ReadInto without the payload (load-generator mode).
func (cl *Client) ReadNoData(f fs.FileID, blk int32, off, size int) (hit bool, err error) {
	err = cl.do(f, func(c *client.Conn, remote fs.FileID) (err error) {
		hit, err = c.ReadNoData(remote, blk, off, size)
		return err
	})
	return hit, err
}

// Write writes one block range to the file's node.
func (cl *Client) Write(f fs.FileID, blk int32, off int, payload []byte) (hit bool, err error) {
	err = cl.do(f, func(c *client.Conn, remote fs.FileID) (err error) {
		hit, err = c.Write(remote, blk, off, payload)
		return err
	})
	return hit, err
}

// Close closes every node session. The Client is dead afterwards.
func (cl *Client) Close() error {
	cl.mu.Lock()
	nodes := cl.nodes
	cl.nodes = make(map[string]*client.Conn)
	cl.mu.Unlock()
	for _, c := range nodes {
		c.Close()
	}
	return nil
}
