// store.go — NodeStore: one cluster node's base block store, the layer
// that makes a peer "just another fill source". It sits where MemStore
// or FileStore would (under the server's per-shard remap, driven by the
// same fill workers and write-behind batches), translates the wire file
// ids it is handed back to names, and serves each access from one of
// two places:
//
//   - a warm peer: when this node owns the file in the current ring,
//     the node that would own it if this node were absent — i.e. the
//     previous owner after a join, the handoff source — probably still
//     has the blocks cached, so the fill round-trips the typed client
//     to that peer and lands the bytes straight in the arena slot;
//   - the origin: the shared name-addressed backing store, for
//     everything else and for every write-back.
//
// The owner-only guard on the peer path is the cascade breaker: a node
// asked for a file it does *not* own (it is being used as someone
// else's fill source, or a failed-over client landed here) fills from
// the origin, never from another peer, so a pull chain is at most one
// hop and two nodes can never feed each other the same miss forever.
//
// Peer and origin failures are never folded into a generic fill error:
// each one increments PeerFillErrors, and the error is returned up the
// fill path, where the kernel surfaces it to the requesting session as
// an io status (the same treatment PR 6 gave ErrWriteBack).

package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/server/client"
	"repro/internal/stats"
)

// ErrPeerFill wraps every failure of the cluster fill path, so callers
// can distinguish "the cluster tier could not produce the block" from
// kernel-level errors. It maps to the io status on the wire.
var ErrPeerFill = errors.New("cluster: peer fill failed")

// peer is one remote node as a fill source: a redialed typed
// connection plus the name→file handle cache scoped to the current
// connection (wire ids are per-session-visible but survive reconnects
// only as long as the remote process lives, so the cache resets on
// every fresh dial).
type peer struct {
	rd *client.Redialer[*client.Conn]

	mu    sync.Mutex
	files map[string]fs.FileID
	down  bool // sticky: a dead peer stops being consulted (origin serves)
}

func (p *peer) markDown() {
	p.mu.Lock()
	p.down = true
	p.mu.Unlock()
}

func (p *peer) isDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// open resolves name on the peer, caching the handle per connection.
func (p *peer) open(c *client.Conn, name string) (fs.FileID, error) {
	p.mu.Lock()
	if id, ok := p.files[name]; ok {
		p.mu.Unlock()
		return id, nil
	}
	p.mu.Unlock()
	f, err := c.Open(name)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	p.files[name] = f.ID
	p.mu.Unlock()
	return f.ID, nil
}

// NodeStore implements disk.Store and disk.BatchStore over the cluster:
// reads pull through a warm peer or the origin, writes (the kernel's
// write-backs and flushes) go to the origin. It learns the id→name
// mapping from the server, which announces every open and create to its
// base store — always before any fill can reference the id.
type NodeStore struct {
	self   string
	origin Origin
	ring   atomic.Pointer[Ring]

	mu       sync.RWMutex
	names    map[int32]string // wire id -> name (Announce)
	noPeer   map[string]bool  // names the warm peer lacks (negative cache)
	peers    map[string]*peer
	peerWarm bool // consult warm peers at all (off for a 1-node tier)

	peerFills      atomic.Int64
	peerFillMisses atomic.Int64
	peerFillErrors atomic.Int64
}

// NewNodeStore builds the store for node self over the given origin and
// initial membership ring.
func NewNodeStore(self string, ring *Ring, origin Origin) *NodeStore {
	ns := &NodeStore{
		self:   self,
		origin: origin,
		names:  make(map[int32]string),
		noPeer: make(map[string]bool),
		peers:  make(map[string]*peer),
	}
	ns.ring.Store(ring)
	ns.peerWarm = ring.Len() > 1
	return ns
}

// Announce records a wire id → name binding; the server calls it on
// every open and create. Re-announcing (every open) is idempotent.
func (ns *NodeStore) Announce(wire int32, name string) {
	ns.mu.Lock()
	if ns.names[wire] != name {
		ns.names[wire] = name
	}
	ns.mu.Unlock()
}

// Ring returns the current membership ring.
func (ns *NodeStore) Ring() *Ring { return ns.ring.Load() }

// FillStats snapshots the peer-fill counters; the server folds them into
// the aggregated kernel snapshot on all three stats surfaces.
func (ns *NodeStore) FillStats() stats.FillStats {
	return stats.FillStats{
		PeerFills:      ns.peerFills.Load(),
		PeerFillMisses: ns.peerFillMisses.Load(),
		PeerFillErrors: ns.peerFillErrors.Load(),
	}
}

func (ns *NodeStore) name(wire int32) (string, error) {
	ns.mu.RLock()
	name, ok := ns.names[wire]
	ns.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%w: no name announced for wire file %d", ErrPeerFill, wire)
	}
	return name, nil
}

// Peer returns (dialing if needed) the typed connection to addr — also
// the transport the warm handoff streams over.
func (ns *NodeStore) Peer(addr string) (*client.Conn, *peer, error) {
	ns.mu.Lock()
	p, ok := ns.peers[addr]
	if !ok {
		p = &peer{}
		rd, err := redial(addr, func(*client.Conn) error {
			p.mu.Lock()
			p.files = make(map[string]fs.FileID)
			p.mu.Unlock()
			return nil
		})
		if err != nil {
			ns.mu.Unlock()
			return nil, nil, err
		}
		p.rd = rd
		ns.peers[addr] = p
	}
	ns.mu.Unlock()
	c, err := p.rd.Get()
	return c, p, err
}

// warmPeer picks the peer to consult for name, or "" when the origin
// should serve directly: the peer path is only for files this node
// owns (the cascade breaker), and the source is the node that owned
// the file before this node was in the ring.
func (ns *NodeStore) warmPeer(name string) string {
	ns.mu.RLock()
	warm, skip := ns.peerWarm, ns.noPeer[name]
	ns.mu.RUnlock()
	if !warm || skip {
		return ""
	}
	ring := ns.ring.Load()
	if ring.Len() < 2 || ring.Owner(name) != ns.self {
		return ""
	}
	prev := ring.Without(ns.self).Owner(name)
	if prev == "" || prev == ns.self {
		return ""
	}
	ns.mu.RLock()
	p := ns.peers[prev] // looked up, not dialed
	ns.mu.RUnlock()
	if p != nil && p.isDown() {
		return ""
	}
	return prev
}

// readFromPeer pulls one block of name from the warm peer into dst.
// Returns (served, err): err non-nil only for real failures (counted by
// the caller); a clean miss (the peer has no such file) negative-caches
// the name and reports served=false with no error.
func (ns *NodeStore) readFromPeer(addr, name string, blk int32, dst []byte) (bool, error) {
	c, p, err := ns.Peer(addr)
	if err != nil {
		if p != nil {
			p.markDown()
		}
		return false, err
	}
	fid, err := p.open(c, name)
	if err != nil {
		if notFound(err) {
			ns.mu.Lock()
			ns.noPeer[name] = true
			ns.mu.Unlock()
			ns.peerFillMisses.Add(1)
			return false, nil
		}
		p.rd.Invalidate(c)
		return false, err
	}
	if _, err := c.ReadInto(fid, blk, 0, disk.BlockSize, dst); err != nil {
		// An in-protocol failure (the peer is up but cannot produce the
		// block) doesn't tear the connection down, just falls to the
		// origin.
		if se := (*client.StatusError)(nil); !errors.As(err, &se) {
			p.rd.Invalidate(c)
		}
		return false, err
	}
	ns.peerFills.Add(1)
	return true, nil
}

// ReadBlock and WriteBlock implement disk.Store: a block is a run of one,
// so routing, counting and error wrapping are written once, below.
func (ns *NodeStore) ReadBlock(file, blk int32, dst []byte) error {
	return ns.ReadBlocks([]disk.BlockSpan{{File: file, Blk: blk}}, [][]byte{dst})[0]
}

func (ns *NodeStore) WriteBlock(file, blk int32, src []byte) error {
	return ns.WriteBlocks([]disk.BlockSpan{{File: file, Blk: blk}}, [][]byte{src})[0]
}

// ReadBlocks implements disk.BatchStore: each same-file adjacent run (the
// shape the fill workers coalesce into) is served by the warm peer when
// the guard allows and by the origin, as one run read, otherwise — every
// failure counted and surfaced. A run on the warm-peer path degrades to
// per-block peer round-trips, because the wire protocol reads one block
// per frame.
func (ns *NodeStore) ReadBlocks(specs []disk.BlockSpan, dsts [][]byte) []error {
	return ns.eachRun(specs, "read", func(name string, lo, hi int) error {
		if addr := ns.warmPeer(name); addr != "" {
			served := true
			for i := lo; i < hi && served; i++ {
				var perr error
				served, perr = ns.readFromPeer(addr, name, specs[i].Blk, dsts[i])
				if perr != nil {
					ns.peerFillErrors.Add(1)
				}
			}
			if served {
				return nil
			}
			// Peer miss or failure: the origin serves the whole run.
		}
		return ns.origin.ReadRun(name, specs[lo].Blk, dsts[lo:hi])
	})
}

// WriteBlocks implements disk.BatchStore: write-backs and flushes persist
// to the origin under the file's name, each run as one vectored write,
// and a removed file's discards (nil entries) go there the same way, in
// place among them — the name stays announced after the remove, so the
// blocks its previous holder left are gone before the name can be read
// again.
func (ns *NodeStore) WriteBlocks(specs []disk.BlockSpan, srcs [][]byte) []error {
	return ns.eachRun(specs, "write", func(name string, lo, hi int) error {
		return ns.origin.WriteRun(name, specs[lo].Blk, srcs[lo:hi])
	})
}

// eachRun splits specs into same-file consecutive-block runs, resolves
// each run's file name and calls f with it and the run's [lo, hi) range;
// a failure — no name announced, or f's, which is the origin's — is
// counted and set, wrapped, on every block of its run. The callers above
// hand down batches the fill workers and write-behind already sorted and
// grouped, but arbitrary spans still split correctly — just into more
// runs.
func (ns *NodeStore) eachRun(specs []disk.BlockSpan, verb string, f func(name string, lo, hi int) error) []error {
	errs := make([]error, len(specs))
	for lo := 0; lo < len(specs); {
		hi := lo + 1
		for hi < len(specs) && specs[hi].File == specs[lo].File && specs[hi].Blk == specs[hi-1].Blk+1 {
			hi++
		}
		name, err := ns.name(specs[lo].File)
		if err == nil {
			if err = f(name, lo, hi); err != nil {
				err = fmt.Errorf("%w: origin %s %s/%d+%d: %v", ErrPeerFill, verb, name, specs[lo].Blk, hi-lo, err)
			}
		}
		if err != nil {
			ns.peerFillErrors.Add(1)
			for i := lo; i < hi; i++ {
				errs[i] = err
			}
		}
		lo = hi
	}
	return errs
}

// Close closes every peer connection. The origin is shared by the whole
// cluster and is closed by whoever created it (both built-in origins
// have no-op Closes).
func (ns *NodeStore) Close() error {
	ns.mu.Lock()
	peers := ns.peers
	ns.peers = make(map[string]*peer)
	ns.mu.Unlock()
	for _, p := range peers {
		p.rd.Close()
	}
	return nil
}
