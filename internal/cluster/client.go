// client.go — the cluster-aware client: the same one-method-per-op
// surface as client.Conn, with file→node routing in front. Every file
// name hashes to its owning node on the shared ring; the client keeps
// one redialed session per node and hands callers synthetic file ids,
// because wire ids are a per-node encoding (two nodes give the same
// name different ids) and only the name — and therefore the synthetic
// id bound to it — is cluster-global.
//
// Failure handling is the unplanned-death half of the membership story:
// when a node stops answering (transport error, or the drain refusal a
// retiring server sends), the client marks it dead, re-routes the file
// to the ring over the survivors, re-resolves it there (re-create with
// the remembered shape when the survivor has never seen it), and
// retries — again if that survivor is gone as well, until a node
// answers or none is left. The survivor then pulls the blocks through
// cold from the origin — no coordination, no recovery protocol, exactly
// the redial-next-owner behavior the cluster design promises.

package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/acm"
	"repro/internal/fs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Client is a routing client over a static member list. Safe for one
// goroutine (like client.Conn, concurrency comes from many Clients).
type Client struct {
	ring *Ring

	mu     sync.Mutex // guards nodes/dead across the failover path
	nodes  map[string]*clusterSess
	dead   map[string]bool
	files  map[fs.FileID]*centry
	byName map[string]fs.FileID
	nextID fs.FileID

	controlled bool
	policies   []policySet // replayed onto reconnecting nodes
}

type clusterSess struct {
	rd *client.Redialer[*client.Conn]
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

type policySet struct {
	prio int
	pol  acm.Policy
}

// NewClient builds a client over members.
func NewClient(members []string) *Client {
	return &Client{
		ring:   NewRing(members),
		nodes:  make(map[string]*clusterSess),
		dead:   make(map[string]bool),
		files:  make(map[fs.FileID]*centry),
		byName: make(map[string]fs.FileID),
		nextID: 1,
	}
}

// alive returns the ring over the members not yet marked dead.
func (cl *Client) alive() *Ring {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	r := cl.ring
	for m := range cl.dead {
		r = r.Without(m)
	}
	return r
}

func (cl *Client) markDead(addr string) {
	cl.mu.Lock()
	cl.dead[addr] = true
	cl.mu.Unlock()
}

// conn returns (dialing if needed) the session to addr. A fresh
// connection replays the client's session state: manager mode and any
// policy table edits.
func (cl *Client) conn(addr string) (*client.Conn, *clusterSess, error) {
	cl.mu.Lock()
	s, ok := cl.nodes[addr]
	if !ok {
		network, hostOrPath, err := SplitAddr(addr)
		if err != nil {
			cl.mu.Unlock()
			return nil, nil, err
		}
		s = &clusterSess{}
		s.rd = &client.Redialer[*client.Conn]{
			Dial:        func() (*client.Conn, error) { return client.Dial(network, hostOrPath) },
			DialTimeout: peerDialTimeout,
			Attempts:    2,
			OnConnect:   func(c *client.Conn) error { return cl.restore(c) },
		}
		cl.nodes[addr] = s
	}
	cl.mu.Unlock()
	c, err := s.rd.Get()
	return c, s, err
}

func (cl *Client) restore(c *client.Conn) error {
	if cl.controlled {
		if err := c.Control(true); err != nil {
			return err
		}
	}
	for _, ps := range cl.policies {
		if err := c.SetPolicy(ps.prio, ps.pol); err != nil {
			return err
		}
	}
	return nil
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

// resolve opens (or, when the shape is known, creates) e.name on addr
// and rebinds the entry there.
func (cl *Client) resolve(e *centry, addr string) error {
	c, _, err := cl.conn(addr)
	if err != nil {
		return err
	}
	rf, err := openOrCreateShaped(c, e)
	if err != nil {
		return err
	}
	e.addr, e.remote = addr, rf
	return nil
}

func openOrCreateShaped(c *client.Conn, e *centry) (fs.FileID, error) {
	f, err := c.Open(e.name)
	if err == nil {
		return f.ID, nil
	}
	if e.created {
		if se := (*client.StatusError)(nil); errors.As(err, &se) && se.Status == server.StatusNotFound {
			f, err = c.Create(e.name, e.disk, e.size)
			if err == nil {
				return f.ID, nil
			}
		}
	}
	return 0, err
}

// do runs op against e's node, failing over to the next live ring owner
// for as long as the node it tried is gone and another is left.
func (cl *Client) do(e *centry, op func(c *client.Conn, remote fs.FileID) error) error {
	for {
		c, s, err := cl.conn(e.addr)
		if err == nil {
			err = op(c, e.remote)
			if err == nil || !retriable(err) {
				return err
			}
			s.rd.Invalidate(c)
		}
		cl.markDead(e.addr)
		if err := cl.failover(e, err); err != nil {
			return err
		}
	}
}

// failover rebinds e to the first live ring owner that resolves it. An
// owner that is gone too — the node a leaver handed the file to can die
// before this client next touches it — is marked dead and the next one
// tried; any other failure to resolve surfaces.
func (cl *Client) failover(e *centry, cause error) error {
	for {
		next := cl.alive()
		if next.Len() == 0 {
			return fmt.Errorf("cluster: no live nodes: %w", cause)
		}
		owner := next.Owner(e.name)
		err := cl.resolve(e, owner)
		if err == nil {
			return nil
		}
		if !retriable(err) {
			return fmt.Errorf("cluster: failover of %s to %s: %w", e.name, owner, err)
		}
		cl.markDead(owner)
		cause = err
	}
}

// entry looks a synthetic id up.
func (cl *Client) entry(f fs.FileID) (*centry, error) {
	cl.mu.Lock()
	e := cl.files[f]
	cl.mu.Unlock()
	if e == nil {
		return nil, fmt.Errorf("cluster: unknown file id %d", f)
	}
	return e, nil
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
	owner := cl.alive().Owner(name)
	if owner == "" {
		return client.File{}, errors.New("cluster: no live nodes")
	}
	c, s, err := cl.conn(owner)
	if err != nil {
		// The owner won't even dial: mark it dead and route to the
		// survivors, same as a mid-op transport failure.
		cl.markDead(owner)
		if next := cl.alive(); next.Len() > 0 {
			return cl.Open(name)
		}
		return client.File{}, err
	}
	f, err := c.Open(name)
	if err != nil {
		if retriable(err) {
			s.rd.Invalidate(c)
			cl.markDead(owner)
			if next := cl.alive(); next.Len() > 0 {
				return cl.Open(name)
			}
		} else if se := (*client.StatusError)(nil); errors.As(err, &se) && se.Status == server.StatusNotFound {
			// The owner has never seen the name — it may have been
			// created before a join moved the name's hash owner here.
			// Probe the rest of the cluster and migrate routing.
			if file, ok := cl.openThrough(name, owner); ok {
				return file, nil
			}
		}
		return client.File{}, err
	}
	e, id := cl.bind(name)
	e.addr, e.remote, e.size = owner, f.ID, f.Size
	return client.File{ID: id, Size: f.Size}, nil
}

// openThrough handles the join case: name hashes to owner, but it was
// created while owner was not yet in the ring, so owner's local fs has
// never seen it. Probe the other live members; when one knows the file,
// re-create it (same block count) on the owner and bind routing there —
// the owner's first reads then pull the blocks through from its warm
// peer or the origin, which is exactly the join warm-up path.
func (cl *Client) openThrough(name, owner string) (client.File, bool) {
	for _, m := range cl.alive().Members() {
		if m == owner {
			continue
		}
		c, _, err := cl.conn(m)
		if err != nil {
			continue
		}
		f, err := c.Open(name)
		if err != nil {
			continue
		}
		oc, _, err := cl.conn(owner)
		if err != nil {
			break
		}
		nf, err := oc.Create(name, 0, f.Size)
		if err != nil {
			// Raced another client's migration: the owner knows the
			// name now.
			if nf, err = oc.Open(name); err != nil {
				break
			}
		}
		e, id := cl.bind(name)
		e.addr, e.remote, e.created = owner, nf.ID, true
		e.disk, e.size = 0, nf.Size
		return client.File{ID: id, Size: nf.Size}, true
	}
	return client.File{}, false
}

// Create creates name on its owning node and remembers the shape, so a
// failover can re-create it on a survivor.
func (cl *Client) Create(name string, d, sizeBlocks int) (client.File, error) {
	owner := cl.alive().Owner(name)
	if owner == "" {
		return client.File{}, errors.New("cluster: no live nodes")
	}
	c, s, err := cl.conn(owner)
	if err != nil {
		cl.markDead(owner)
		if next := cl.alive(); next.Len() > 0 {
			return cl.Create(name, d, sizeBlocks)
		}
		return client.File{}, err
	}
	f, err := c.Create(name, d, sizeBlocks)
	if err != nil {
		if retriable(err) {
			s.rd.Invalidate(c)
			cl.markDead(owner)
			if next := cl.alive(); next.Len() > 0 {
				return cl.Create(name, d, sizeBlocks)
			}
		}
		return client.File{}, err
	}
	e, id := cl.bind(name)
	e.addr, e.remote = owner, f.ID
	e.disk, e.size, e.created = d, f.Size, true
	return client.File{ID: id, Size: f.Size}, nil
}

// Remove removes name on its owning node.
func (cl *Client) Remove(name string) error {
	e, _ := cl.bind(name)
	if e.addr == "" {
		if owner := cl.alive().Owner(name); owner != "" {
			e.addr = owner
		} else {
			return errors.New("cluster: no live nodes")
		}
	}
	return cl.do(e, func(c *client.Conn, _ fs.FileID) error {
		return c.Remove(e.name)
	})
}

// Control toggles manager mode on every live node (sessions span all of
// them), and remembers the flag for reconnects.
func (cl *Client) Control(enable bool) error {
	cl.controlled = enable
	return cl.broadcast(func(c *client.Conn) error { return c.Control(enable) })
}

func (cl *Client) broadcast(op func(c *client.Conn) error) error {
	var firstErr error
	for _, m := range cl.alive().Members() {
		c, s, err := cl.conn(m)
		if err == nil {
			err = op(c)
			if err != nil && retriable(err) {
				s.rd.Invalidate(c)
			}
		}
		if err != nil {
			cl.markDead(m)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil && cl.alive().Len() > 0 {
		// Some node took it; the dead ones will be failed over anyway.
		return nil
	}
	return firstErr
}

// Fbehavior routes per-file ops to the file's node and policy-table
// ops to every node (set) or any node (get).
func (cl *Client) Fbehavior(op client.FbOp, a client.FbArgs) (client.FbResult, error) {
	switch op {
	case client.FbSetPolicy:
		cl.policies = append(cl.policies, policySet{prio: a.Prio, pol: a.Policy})
		err := cl.broadcast(func(c *client.Conn) error {
			_, e := c.Fbehavior(op, a)
			return e
		})
		return client.FbResult{}, err
	case client.FbGetPolicy:
		members := cl.alive().Members()
		if len(members) == 0 {
			return client.FbResult{}, errors.New("cluster: no live nodes")
		}
		c, _, err := cl.conn(members[0])
		if err != nil {
			return client.FbResult{}, err
		}
		return c.Fbehavior(op, a)
	}
	e, err := cl.entry(a.File)
	if err != nil {
		return client.FbResult{}, err
	}
	var res client.FbResult
	err = cl.do(e, func(c *client.Conn, remote fs.FileID) error {
		ra := a
		ra.File = remote
		var e2 error
		res, e2 = c.Fbehavior(op, ra)
		return e2
	})
	return res, err
}

// ReadInto reads one block range from the file's node.
func (cl *Client) ReadInto(f fs.FileID, blk int32, off, size int, dst []byte) (bool, error) {
	e, err := cl.entry(f)
	if err != nil {
		return false, err
	}
	var hit bool
	err = cl.do(e, func(c *client.Conn, remote fs.FileID) error {
		var e2 error
		hit, e2 = c.ReadInto(remote, blk, off, size, dst)
		return e2
	})
	return hit, err
}

// ReadNoData is ReadInto without the payload (load-generator mode).
func (cl *Client) ReadNoData(f fs.FileID, blk int32, off, size int) (bool, error) {
	e, err := cl.entry(f)
	if err != nil {
		return false, err
	}
	var hit bool
	err = cl.do(e, func(c *client.Conn, remote fs.FileID) error {
		var e2 error
		hit, e2 = c.ReadNoData(remote, blk, off, size)
		return e2
	})
	return hit, err
}

// Write writes one block range to the file's node.
func (cl *Client) Write(f fs.FileID, blk int32, off int, payload []byte) (bool, error) {
	e, err := cl.entry(f)
	if err != nil {
		return false, err
	}
	var hit bool
	err = cl.do(e, func(c *client.Conn, remote fs.FileID) error {
		var e2 error
		hit, e2 = c.Write(remote, blk, off, payload)
		return e2
	})
	return hit, err
}

// Close closes every node session. The Client is dead afterwards.
func (cl *Client) Close() error {
	cl.mu.Lock()
	nodes := cl.nodes
	cl.nodes = make(map[string]*clusterSess)
	cl.mu.Unlock()
	for _, s := range nodes {
		s.rd.Close()
	}
	return nil
}
