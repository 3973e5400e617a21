// Package acm implements the paper's Application Control Module: the
// kernel-side proxy for user-level cache managers. A process that wants to
// control its own caching gets a Manager; the manager groups the process's
// cached blocks into priority levels (all files with the same priority form
// one pool), applies an LRU or MRU replacement policy within each pool, and
// answers the buffer cache's replace_block upcalls by giving up a block
// from its lowest-priority non-empty pool.
//
// The user-visible interface is the paper's five fbehavior operations:
//
//	SetPriority / Priority    — long-term priority of a file
//	SetPolicy / Policy        — replacement policy of a priority level
//	SetTempPri                — temporary priority for a range of blocks
//
// A temporary priority affects only blocks currently in the cache and
// lasts until the block is next referenced or replaced, after which the
// block reverts to its file's long-term priority.
//
// Per-block state is the cache.ACMNode embedded in every buffer header
// (the paper's kernel lays its buf struct out the same way), so the five
// BUF→ACM upcalls are allocation-free: no boxing, no type assertions, no
// per-block heap nodes. Managers are indexed by a dense owner-id slice
// because Managed and the upcalls run once per simulated block access.
package acm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/fs"
	"repro/internal/sim"
)

// Policy is a per-priority-level replacement policy.
type Policy int

// Replacement policies offered by the interface (the paper offers exactly
// these two).
const (
	LRU Policy = iota
	MRU
)

func (p Policy) String() string {
	if p == MRU {
		return "MRU"
	}
	return "LRU"
}

// DefaultPriority is the long-term priority files have unless changed.
const DefaultPriority = 0

// ErrLimit is wrapped by every call that fails because a Limits cap
// would be exceeded.
var ErrLimit = errors.New("limit exceeded")

// Limits caps the kernel resources one manager may consume, as the paper's
// implementation does ("fails the calls if the limit would be exceeded").
type Limits struct {
	MaxManagers    int // total managers
	MaxLevels      int // priority levels per manager
	MaxFileRecords int // files with non-default priority per manager
}

// DefaultLimits are generous enough for every workload in the paper.
var DefaultLimits = Limits{MaxManagers: 64, MaxLevels: 32, MaxFileRecords: 512}

// A priority pool is a cache.ACMLevel: the intrusive node list lives in
// the cache package (embedded in Buf), the policy semantics live here.
// ACMLevel.Policy stores a Policy as its opaque int code.

// linkLater inserts nd at the end that causes the block to be replaced
// later under this level's policy: the MRU end for LRU, the LRU end for
// MRU. This is the paper's rule for blocks moving between lists.
func linkLater(l *cache.ACMLevel, nd *cache.ACMNode) {
	if Policy(l.Policy) == LRU {
		l.LinkMRU(nd)
	} else {
		l.LinkLRU(nd)
	}
}

// victim returns the block this level's policy would replace, along with
// a fallback choice. Blocks that are busy (I/O in flight at time now) are
// never returned. In an MRU pool, blocks that have never been referenced
// (read-ahead still waiting for its first use) are reported only as the
// fallback: MRU orders blocks by *use* recency, which an unused prefetch
// does not have, and evicting one throws away an I/O already paid for.
// LRU pools do not make this distinction, so a manager with default
// settings remains exactly LRU. The caller prefers a referenced victim
// from any level over an unreferenced fallback.
func victim(l *cache.ACMLevel, now sim.Time) (v, fallback *cache.ACMNode) {
	if Policy(l.Policy) == LRU {
		for nd := l.Head.Next; nd != &l.Tail; nd = nd.Next {
			if !nd.Buf.Busy(now) {
				return nd, nil
			}
		}
		return nil, nil
	}
	for nd := l.Tail.Prev; nd != &l.Head; nd = nd.Prev {
		if nd.Buf.Busy(now) {
			continue
		}
		if !nd.Buf.Referenced {
			if fallback == nil {
				fallback = nd
			}
			continue
		}
		return nd, fallback
	}
	return nil, fallback
}

// Manager is one process's cache-control state.
type Manager struct {
	acm      *ACM
	owner    int
	slot     int               // index in acm.live
	levels   []*cache.ACMLevel // sorted by Prio ascending
	filePrio map[fs.FileID]int
	policies map[int]Policy

	// Counters visible to the application and the experiments.
	NewBlocks  int64
	GoneBlocks int64
	Accesses   int64
	Decisions  int64 // replace_block upcalls answered
	Overrules  int64 // answers that differed from the candidate
	Mistakes   int64 // placeholder_used notifications
}

// ACM is the application control module shared by all managers.
type ACM struct {
	now    func() sim.Time
	limits Limits
	// managers is indexed by owner id (process ids are small and dense);
	// nil entries are unmanaged. Hot-path lookups must not pay for a map.
	managers []*Manager
	// live lists the managers that exist, in no particular order: what
	// FileGone walks — at most MaxManagers, however many owner ids have
	// come and gone.
	live []*Manager
}

// New builds an ACM. The now function supplies virtual time for busy-block
// checks (pass engine.Now).
func New(now func() sim.Time, limits Limits) *ACM {
	if limits.MaxManagers <= 0 {
		limits = DefaultLimits
	}
	return &ACM{now: now, limits: limits}
}

// managerOf returns the manager for owner, or nil.
func (a *ACM) managerOf(owner int) *Manager {
	if owner < 0 || owner >= len(a.managers) {
		return nil
	}
	return a.managers[owner]
}

// CreateManager registers cache control for a process. It fails if the
// process already has a manager or the manager limit is reached.
func (a *ACM) CreateManager(owner int) (*Manager, error) {
	if owner < 0 {
		return nil, fmt.Errorf("acm: invalid owner id %d", owner)
	}
	if a.managerOf(owner) != nil {
		return nil, fmt.Errorf("acm: process %d already has a manager", owner)
	}
	if len(a.live) >= a.limits.MaxManagers {
		return nil, fmt.Errorf("acm: manager limit (%d): %w", a.limits.MaxManagers, ErrLimit)
	}
	m := &Manager{
		acm:      a,
		owner:    owner,
		slot:     len(a.live),
		filePrio: make(map[fs.FileID]int),
		policies: make(map[int]Policy),
	}
	for len(a.managers) <= owner {
		a.managers = append(a.managers, nil)
	}
	a.managers[owner] = m
	a.live = append(a.live, m)
	return m, nil
}

// DestroyManager withdraws a process's cache control. Its blocks become
// unmanaged; the cache falls back to treating them by global policy alone.
func (a *ACM) DestroyManager(owner int) {
	m := a.managerOf(owner)
	if m == nil {
		return
	}
	for _, l := range m.levels {
		for nd := l.Head.Next; nd != &l.Tail; {
			next := nd.Next
			nd.Prev, nd.Next, nd.Level = nil, nil, nil
			nd.Temp = false
			nd = next
		}
	}
	a.managers[owner] = nil
	last := len(a.live) - 1
	a.live[m.slot] = a.live[last]
	a.live[m.slot].slot = m.slot
	a.live[last] = nil
	a.live = a.live[:last]
}

// FileGone tells the ACM a file has been removed: every manager drops
// its priority record for it. File ids are never reused, so the record
// could steer nothing any more, but it would count against
// MaxFileRecords for as long as its manager lives — and an application
// that keeps control while it churns temporary files (sort, after every
// merge pass) would run out of records with a handful of files in
// existence.
func (a *ACM) FileGone(file fs.FileID) {
	for _, m := range a.live {
		delete(m.filePrio, file)
	}
}

// ManagerOf returns the manager for owner, if any.
func (a *ACM) ManagerOf(owner int) (*Manager, bool) {
	m := a.managerOf(owner)
	return m, m != nil
}

// Managed implements cache.Replacer.
func (a *ACM) Managed(owner int) bool {
	return a.managerOf(owner) != nil
}

// getLevel finds or creates the pool for prio, honouring MaxLevels.
func (m *Manager) getLevel(prio int) (*cache.ACMLevel, error) {
	i := sort.Search(len(m.levels), func(i int) bool { return m.levels[i].Prio >= prio })
	if i < len(m.levels) && m.levels[i].Prio == prio {
		return m.levels[i], nil
	}
	if len(m.levels) >= m.acm.limits.MaxLevels {
		return nil, fmt.Errorf("acm: level limit (%d): %w", m.acm.limits.MaxLevels, ErrLimit)
	}
	pol, ok := m.policies[prio]
	if !ok {
		pol = LRU
	}
	l := cache.NewACMLevel(prio, int(pol))
	m.levels = append(m.levels, nil)
	copy(m.levels[i+1:], m.levels[i:])
	m.levels[i] = l
	return l, nil
}

// longTermLevel returns the pool a block of this file belongs to by its
// long-term priority.
func (m *Manager) longTermLevel(file fs.FileID) (*cache.ACMLevel, error) {
	prio, ok := m.filePrio[file]
	if !ok {
		prio = DefaultPriority
	}
	return m.getLevel(prio)
}

// --- the five BUF -> ACM calls (cache.Replacer) ---

// NewBlock links a freshly cached block into its long-term pool at the
// most-recently-used position.
func (a *ACM) NewBlock(b *cache.Buf) {
	m := a.managerOf(b.Owner)
	if m == nil {
		return
	}
	l, err := m.longTermLevel(b.ID.File)
	if err != nil {
		// Out of level records: leave the block unmanaged rather than
		// failing the I/O path.
		return
	}
	nd := b.ACM()
	if nd.Level != nil {
		// Defensive: a node the kernel failed to block_gone (it should
		// never happen) must leave its old list before relinking, or the
		// two level lists would splice together.
		nd.Level.Unlink(nd)
	}
	nd.Buf = b
	l.LinkMRU(nd)
	m.NewBlocks++
}

// BlockGone unlinks a block that left the cache.
func (a *ACM) BlockGone(b *cache.Buf) {
	nd := b.ACM()
	if nd.Level == nil {
		return
	}
	nd.Level.Unlink(nd)
	nd.Temp = false
	if m := a.managerOf(b.Owner); m != nil {
		m.GoneBlocks++
	}
}

// BlockAccessed refreshes recency and reverts any temporary priority: a
// temporary priority lasts only until the next reference.
func (a *ACM) BlockAccessed(b *cache.Buf, off, size int) {
	nd := b.ACM()
	l := nd.Level
	if l == nil {
		return
	}
	m := a.managerOf(b.Owner)
	if m == nil {
		return
	}
	m.Accesses++
	if nd.Temp {
		nd.Temp = false
		l.Unlink(nd)
		lt, err := m.longTermLevel(b.ID.File)
		if err != nil {
			return // out of level records: block drops out of management
		}
		lt.LinkMRU(nd)
		return
	}
	// Move to the most-recently-used position of its current pool.
	l.Unlink(nd)
	l.LinkMRU(nd)
}

// ReplaceBlock answers the kernel's request on behalf of the candidate's
// manager: give up a block from the lowest-priority non-empty pool,
// selected by that pool's policy. Returning the candidate accepts the
// kernel's suggestion.
func (a *ACM) ReplaceBlock(candidate *cache.Buf, missing cache.BlockID) *cache.Buf {
	m := a.managerOf(candidate.Owner)
	if m == nil {
		return candidate
	}
	m.Decisions++
	now := a.now()
	var fallback *cache.ACMNode
	for _, l := range m.levels {
		if l.N == 0 {
			continue
		}
		nd, fb := victim(l, now)
		if fallback == nil {
			fallback = fb
		}
		if nd != nil {
			if nd.Buf != candidate {
				m.Overrules++
			}
			return nd.Buf
		}
	}
	if fallback != nil {
		if fallback.Buf != candidate {
			m.Overrules++
		}
		return fallback.Buf
	}
	return candidate
}

// PlaceholderUsed records that an earlier overrule was a mistake. The
// count feeds application-level diagnostics; the kernel-side revocation
// bookkeeping lives in the cache.
func (a *ACM) PlaceholderUsed(missing cache.BlockID, pointed *cache.Buf) {
	if m := a.managerOf(pointed.Owner); m != nil {
		m.Mistakes++
	}
}

// --- the fbehavior user interface ---

// SetPriority assigns the long-term cache priority of a file and moves its
// cached, non-temporary blocks into the new pool (at the later-replaced
// end, per the paper's movement rule).
func (m *Manager) SetPriority(file fs.FileID, prio int) error {
	if prio == DefaultPriority {
		delete(m.filePrio, file)
	} else {
		if _, ok := m.filePrio[file]; !ok && len(m.filePrio) >= m.acm.limits.MaxFileRecords {
			return fmt.Errorf("acm: file record limit (%d): %w", m.acm.limits.MaxFileRecords, ErrLimit)
		}
		m.filePrio[file] = prio
	}
	dst, err := m.getLevel(prio)
	if err != nil {
		return err
	}
	for _, nd := range m.blocksOf(file) {
		if nd.Temp {
			continue // temp priority wins until next reference
		}
		if nd.Level == dst {
			continue
		}
		nd.Level.Unlink(nd)
		linkLater(dst, nd)
	}
	return nil
}

// Priority returns the long-term priority of a file.
func (m *Manager) Priority(file fs.FileID) int {
	if p, ok := m.filePrio[file]; ok {
		return p
	}
	return DefaultPriority
}

// SetPolicy sets the replacement policy of a priority level.
func (m *Manager) SetPolicy(prio int, pol Policy) error {
	if pol != LRU && pol != MRU {
		return fmt.Errorf("acm: unknown policy %d", int(pol))
	}
	m.policies[prio] = pol
	l, err := m.getLevel(prio)
	if err != nil {
		return err
	}
	l.Policy = int(pol)
	return nil
}

// PolicyOf returns the replacement policy of a priority level.
func (m *Manager) PolicyOf(prio int) Policy {
	if p, ok := m.policies[prio]; ok {
		return p
	}
	return LRU
}

// SetTempPri gives the cached blocks of file in [startBlk, endBlk] a
// temporary priority. Only blocks presently in the cache are affected; the
// change lasts until each block is next referenced or replaced.
//
// The blocks are found through bc, the cache this manager's blocks live
// in: one index probe per block of the range, or — when the range is wider
// than the manager's whole pool, as a wire client's [0, MaxInt32] is — one
// walk of the pool. Either way the blocks that change pools are relinked
// in ascending block number, each at the later-replaced end.
func (m *Manager) SetTempPri(bc *cache.Cache, file fs.FileID, startBlk, endBlk int32, prio int) error {
	if startBlk > endBlk {
		return fmt.Errorf("acm: bad block range [%d, %d]", startBlk, endBlk)
	}
	dst, err := m.getLevel(prio)
	if err != nil {
		return err
	}
	temp := prio != m.Priority(file)
	move := func(nd *cache.ACMNode) {
		if nd.Level != dst {
			nd.Level.Unlink(nd)
			linkLater(dst, nd)
		}
		nd.Temp = temp
	}
	pool := 0
	for _, l := range m.levels {
		pool += l.N
	}
	if span := int64(endBlk) - int64(startBlk) + 1; span <= int64(pool) {
		for i := int64(0); i < span; i++ {
			b := bc.Peek(cache.BlockID{File: file, Num: startBlk + int32(i)})
			// Another process's block, or one this manager ran out of
			// level records for, is not this manager's to move.
			if b != nil && b.Owner == m.owner && b.ACM().Level != nil {
				move(b.ACM())
			}
		}
		return nil
	}
	nodes := m.blocksOf(file)
	nodes = slices.DeleteFunc(nodes, func(nd *cache.ACMNode) bool {
		return nd.Buf.ID.Num < startBlk || nd.Buf.ID.Num > endBlk
	})
	slices.SortFunc(nodes, func(a, b *cache.ACMNode) int { return cmp.Compare(a.Buf.ID.Num, b.Buf.ID.Num) })
	for _, nd := range nodes {
		move(nd)
	}
	return nil
}

// blocksOf collects the manager's cached nodes for a file.
func (m *Manager) blocksOf(file fs.FileID) []*cache.ACMNode {
	var out []*cache.ACMNode
	for _, l := range m.levels {
		for nd := l.Head.Next; nd != &l.Tail; nd = nd.Next {
			if nd.Buf.ID.File == file {
				out = append(out, nd)
			}
		}
	}
	return out
}

// LevelSize is one entry of LevelSizes: occupancy of the pool at Prio.
type LevelSize struct {
	Prio, N int
}

// LevelSizes reports non-empty pool occupancy ordered by ascending
// priority, appending to buf (pass nil for a fresh slice, or a recycled
// one to avoid allocating). For tests and diagnostics; the former
// map-returning version allocated a map per call, which invited
// accidental hot-path use.
func (m *Manager) LevelSizes(buf []LevelSize) []LevelSize {
	out := buf[:0]
	for _, l := range m.levels {
		if l.N > 0 {
			out = append(out, LevelSize{Prio: l.Prio, N: l.N})
		}
	}
	return out
}

// PoolOrder returns the block numbers of file's blocks in pool prio, from
// the LRU end to the MRU end. Intended for tests.
func (m *Manager) PoolOrder(prio int) []cache.BlockID {
	i := sort.Search(len(m.levels), func(i int) bool { return m.levels[i].Prio >= prio })
	if i >= len(m.levels) || m.levels[i].Prio != prio {
		return nil
	}
	l := m.levels[i]
	var out []cache.BlockID
	for nd := l.Head.Next; nd != &l.Tail; nd = nd.Next {
		out = append(out, nd.Buf.ID)
	}
	return out
}

// CheckInvariants panics on structural inconsistency; tests call it.
func (a *ACM) CheckInvariants() {
	registered := 0
	for _, m := range a.managers {
		if m != nil {
			registered++
		}
	}
	if registered != len(a.live) {
		panic(fmt.Sprintf("acm: %d managers registered, %d live", registered, len(a.live)))
	}
	for slot, m := range a.live {
		owner := m.owner
		if m.slot != slot || a.managerOf(owner) != m {
			panic(fmt.Sprintf("acm: live manager %d (slot %d) is not the one registered for owner %d", slot, m.slot, owner))
		}
		for _, l := range m.levels {
			n := 0
			for nd := l.Head.Next; nd != &l.Tail; nd = nd.Next {
				n++
				if nd.Level != l {
					panic(fmt.Sprintf("acm: node %v in level %d claims another level", nd.Buf.ID, l.Prio))
				}
				if nd.Buf == nil || nd.Buf.ACM() != nd {
					panic(fmt.Sprintf("acm: node in level %d does not point back at its buf", l.Prio))
				}
				if nd.Buf.Owner != owner {
					panic(fmt.Sprintf("acm: buf %v owned by %d in manager %d", nd.Buf.ID, nd.Buf.Owner, owner))
				}
			}
			if n != l.N {
				panic(fmt.Sprintf("acm: level %d count %d, walked %d", l.Prio, l.N, n))
			}
		}
	}
}

var _ cache.Replacer = (*ACM)(nil)
