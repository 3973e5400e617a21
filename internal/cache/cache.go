// Package cache implements the BUF module of the paper: the buffer cache
// proper, and the kernel's global *allocation* policy for two-level
// replacement.
//
// In two-level replacement the kernel decides which process gives up a
// block (allocation) while the process's manager decides which of its own
// blocks to give up (replacement). On a miss the cache picks a candidate
// victim according to its allocation policy and, when the candidate belongs
// to a managed process, consults the application control module through the
// Replacer interface — the replace_block upcall of the paper. The manager
// may overrule the candidate with another block it owns; the LRU-SP policy
// then swaps the two blocks' positions in the global list and builds a
// placeholder recording the decision, so a later miss on the overruled
// block both selects the kept block as the next candidate and reports the
// manager's mistake (placeholder_used).
//
// Allocation policies sit behind one interface (policy.go): a fixed,
// name-keyed table of AllocPolicy implementations, one of which
// Config.Alloc fixes for the cache's life. There are six — the four
// matching the paper's Section 6 comparisons, plus two adaptive
// extensions:
//
//	GlobalLRU — the original kernel: plain global LRU, no application
//	            control at all (managers are never consulted).
//	LRUSP     — LRU with Swapping and Placeholders (the paper's policy).
//	LRUS      — swapping but no placeholders ("unprotected" in Table 1).
//	AllocLRU  — two-level replacement over a plain LRU list: managers are
//	            consulted but no swapping, no placeholders (Figure 6).
//	ARC       — adaptive replacement (T1/T2 + ghost lists; arc.go).
//	AWRP      — adaptive weight ranking on frequency x recency (awrp.go).
//
// The simulation's unit of work is the block access, so this package is
// engineered to be allocation-free in steady state: buffers live in one
// arena allocated at construction and recycle through a free list, the
// block index and the placeholder index are open-addressing tables keyed
// by a packed 64-bit BlockID (index.go), the ACM's per-block state is
// embedded in the buffer header (acmnode.go), and evicted-victim records
// are returned through a per-cache scratch slot.
package cache

import (
	"fmt"
	"math"

	"repro/internal/fs"
	"repro/internal/sim"
)

// BlockID names one file-system block: a file and a block number within it.
// Both fields must remain 32-bit: the cache indexes blocks by the packed
// 64-bit form (see index.go), which is collision-free only as long as a
// BlockID fits one word exactly.
type BlockID struct {
	File fs.FileID
	Num  int32
}

func (id BlockID) String() string {
	return fmt.Sprintf("f%d:%d", id.File, id.Num)
}

// NoOwner marks a buffer not owned by any process (or owned by a process
// without a manager).
const NoOwner = -1

// IOPending, stored in Buf.ValidAt, marks a buffer whose fill I/O has been
// issued but not completed: the disk completion callback will overwrite
// ValidAt with the real completion time. Until then the buffer is busy
// forever as far as Busy is concerned, and the cache will not recycle it
// even if it is evicted (the callback still holds the pointer).
const IOPending = sim.Time(math.MaxInt64)

// Buf is one cache buffer. The BUF module owns the global-list linkage and
// placeholder back-pointers; the embedded ACMNode belongs to the
// application control module for its per-block state.
type Buf struct {
	ID    BlockID
	Owner int // manager id, or NoOwner

	Dirty   bool
	DirtyAt sim.Time // when the buffer became dirty (update-daemon aging)
	ValidAt sim.Time // read I/O completes at this time; 0 if long valid

	// Referenced distinguishes blocks a process has actually touched
	// from read-ahead blocks still waiting for their first use. Demand
	// loads set it immediately; prefetched blocks gain it on first
	// Lookup. Replacement policies that key on use recency (MRU) treat
	// unreferenced blocks as last-resort victims.
	Referenced bool

	// Slot holds the block's bytes when the cache carries data
	// (Config.SlotBytes > 0; the live server). Attached at Insert,
	// detached into the Victim on dirty eviction, recycled with the
	// buffer otherwise. nil in the data-free simulation. See slot.go.
	Slot *Slot

	// acm is the Replacer's per-block state, embedded so that the five
	// BUF→ACM upcalls never box, assert, or allocate (see acmnode.go).
	acm ACMNode

	// pol is the allocation policy's per-block state (see policy.go),
	// embedded for the same reason: policies must never allocate per
	// block. Reset when the buffer recycles.
	pol polNode

	gprev, gnext *Buf // global allocation list; nil when not linked
	holders      []*placeholder
}

// ACM returns the Replacer's embedded per-block state.
func (b *Buf) ACM() *ACMNode { return &b.acm }

// Busy reports whether the buffer's fill I/O is still in flight at time
// now.
func (b *Buf) Busy(now sim.Time) bool { return b.ValidAt > now }

// placeholder records an overruled replacement: the manager replaced block
// forID while the kernel had suggested the buffer points. A later miss on
// forID makes points the candidate and signals the mistake.
type placeholder struct {
	forID  BlockID
	points *Buf
	free   *placeholder // free-list link; nil while live
}

// Replacer is the application control module as seen from BUF — the five
// procedure calls of Section 4.
type Replacer interface {
	// NewBlock informs the ACM that b was loaded into the cache.
	NewBlock(b *Buf)
	// BlockGone informs the ACM that b was removed from the cache.
	BlockGone(b *Buf)
	// BlockAccessed informs the ACM that b was accessed at the given
	// byte range within the block.
	BlockAccessed(b *Buf, off, size int)
	// ReplaceBlock asks the ACM which block to replace on behalf of the
	// candidate's manager. The returned buffer must belong to the same
	// owner; returning nil or the candidate accepts the kernel's choice.
	ReplaceBlock(candidate *Buf, missing BlockID) *Buf
	// PlaceholderUsed informs the ACM that an earlier decision to
	// replace block missing (keeping pointed) was erroneous.
	PlaceholderUsed(missing BlockID, pointed *Buf)
	// Managed reports whether the owner currently has a manager.
	Managed(owner int) bool
}

// Victim describes an evicted buffer so the caller can write back dirty
// data. When the cache carries data and the victim was dirty, Slot is the
// detached data slot: the caller owns it and must hand it back through
// ReleaseSlot once the write-back (or its abandonment) is done.
type Victim struct {
	ID    BlockID
	Owner int
	Dirty bool
	Slot  *Slot
}

// Stats aggregates cache-wide counters. The json tags are the one
// canonical naming for these counters everywhere they escape the process
// (acfcd's stats reply and /metrics, benchmark/) — see internal/stats.
type Stats struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Evictions       int64 `json:"evictions"`
	UnrefEvictions  int64 `json:"unref_evictions"`  // evictions of never-referenced (prefetched) blocks
	Consults        int64 `json:"consults"`         // replace_block consultations of managers
	Overrules       int64 `json:"overrules"`        // manager picked a block other than the candidate
	PlaceholderHits int64 `json:"placeholder_hits"` // misses resolved through a placeholder
	Vindicated      int64 `json:"vindicated"`       // placeholders dropped because the kept block was used
	Transfers       int64 `json:"transfers"`        // shared-block ownership transfers
	Revocations     int64 `json:"revocations"`
}

// OwnerStats tracks one manager's decision quality for the revocation
// extension (the paper's footnote 7).
type OwnerStats struct {
	Decisions int64 // overruling decisions made
	Mistakes  int64 // of those, how many a placeholder later caught
	Revoked   bool
}

// Config configures a Cache.
type Config struct {
	// Capacity is the number of buffers.
	Capacity int
	// Alloc is the global allocation policy.
	Alloc Alloc
	// Revoke takes control away from a foolish manager (recordMistake).
	Revoke bool
	// SharedTransfer makes ownership of a block follow its use: when a
	// process other than the current owner hits a block, the block moves
	// under the accessor's manager. This is the paper's Section 8 future
	// work on concurrently shared files — whichever process is actively
	// using a shared block gets to apply its policy to it. Off, a block
	// stays with the process that faulted it in.
	SharedTransfer bool
	// SlotBytes, when positive, makes the cache carry block contents:
	// every cached buffer owns a refcounted data slot of this many bytes
	// (see slot.go). Zero — the simulation — stores no data at all.
	SlotBytes int
}

// Cache is the buffer cache. It is not safe for concurrent use; in the
// simulation exactly one process runs at a time.
type Cache struct {
	cfg   Config
	table oaTable[Buf] // packed BlockID -> *Buf; sized once, never rehashes
	// Global allocation list: head.gnext is the LRU end, tail.gprev the
	// MRU end. head and tail are sentinels.
	head, tail *Buf
	count      int
	ph         oaTable[placeholder] // packed BlockID -> live placeholder
	repl       Replacer
	pol        AllocPolicy // the allocation policy, fixed at New
	stats      Stats
	owners     []*OwnerStats // indexed by owner id; nil = no record yet
	noOwner    OwnerStats    // shared record for all negative owner ids

	// arena backs every buffer; freeBufs chains recyclable ones through
	// gnext. Buffers evicted mid-fill (ValidAt == IOPending) are the one
	// exception: the completion callback still holds them, so they leak
	// to the GC instead of recycling, and a fresh Buf is allocated when
	// the free list runs dry.
	arena    []Buf
	freeBufs *Buf
	freePh   *placeholder
	victim   Victim // scratch for Insert's victim result; valid until the next Insert

	// Data slots (SlotBytes > 0 only): one per buffer, made on first
	// need; pooled counts the pool slots made so far (at most Capacity),
	// heapSlots those made past the pool and not yet given back; zombies
	// are freed slots still pinned by in-flight response frames, swept
	// back to the free list as their pins drain (slot.go).
	freeSlots []*Slot
	zombies   []*Slot
	pooled    int
	heapSlots int
}

// New builds a cache. The Replacer may be nil only for policies that
// never consult managers (GlobalLRU). The policy name must be in the
// registry — an unknown name is a construction-time bug and panics,
// exactly as an out-of-range enum value once would have.
func New(cfg Config, repl Replacer) *Cache {
	if cfg.Capacity <= 0 {
		panic("cache: non-positive capacity")
	}
	cfg.Alloc = cfg.Alloc.norm()
	c := &Cache{
		cfg:  cfg,
		head: &Buf{},
		tail: &Buf{},
		repl: repl,
	}
	f := allocFactories[cfg.Alloc]
	if f == nil {
		panic(fmt.Sprintf("cache: unknown allocation policy %q", cfg.Alloc))
	}
	c.pol = f(c)
	if repl == nil && c.pol.TwoLevel() {
		panic("cache: two-level policy requires a Replacer")
	}
	c.head.gnext = c.tail
	c.tail.gprev = c.head
	c.table.reserve(cfg.Capacity)
	if c.pol.Placeholders() {
		// Pre-size the placeholder index too: its population tracks the
		// cached blocks placeholders point at, so reserving capacity
		// keeps steady-state placeholder churn rehash- and alloc-free.
		c.ph.reserve(cfg.Capacity)
	}
	c.arena = make([]Buf, cfg.Capacity)
	for i := range c.arena {
		c.arena[i].gnext = c.freeBufs
		c.freeBufs = &c.arena[i]
	}
	return c
}

// allocBuf takes a buffer off the free list (or, rarely, from the heap
// when busy evictions have drained the arena) and stamps its identity.
func (c *Cache) allocBuf(id BlockID, owner int) *Buf {
	b := c.freeBufs
	if b == nil {
		b = &Buf{}
	} else {
		c.freeBufs = b.gnext
		b.gnext = nil
	}
	b.ID = id
	b.Owner = owner
	if c.cfg.SlotBytes > 0 {
		b.Slot = c.allocSlot()
	}
	return b
}

// freeBuf recycles b unless a fill I/O still holds it.
func (c *Cache) freeBuf(b *Buf) {
	if b.ValidAt == IOPending {
		return
	}
	// Safety net: the embedded ACM node must leave its level list before
	// the buffer is zeroed and recycled, or the list neighbors would keep
	// pointing into a reused buffer. remove() sends block_gone first, so
	// this fires only if some path missed the upcall.
	if b.acm.Level != nil {
		b.acm.Level.Unlink(&b.acm)
	}
	if b.Slot != nil {
		c.ReleaseSlot(b.Slot)
		b.Slot = nil
	}
	holders := b.holders[:0] // keep the slice's capacity across reuse
	*b = Buf{}
	b.holders = holders
	b.gnext = c.freeBufs
	c.freeBufs = b
}

// allocPlaceholder takes a placeholder off the free list.
func (c *Cache) allocPlaceholder(forID BlockID, points *Buf) *placeholder {
	ph := c.freePh
	if ph == nil {
		ph = &placeholder{}
	} else {
		c.freePh = ph.free
		ph.free = nil
	}
	ph.forID = forID
	ph.points = points
	return ph
}

// freePlaceholder recycles ph.
func (c *Cache) freePlaceholder(ph *placeholder) {
	ph.points = nil
	ph.free = c.freePh
	c.freePh = ph
}

// Capacity returns the configured buffer count.
func (c *Cache) Capacity() int { return c.cfg.Capacity }

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return c.count }

// Alloc returns the name of the allocation policy in force.
func (c *Cache) Alloc() Alloc { return c.pol.Name() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Consults returns the replace_block consultation count without copying
// the whole Stats struct (the upcall-cost accounting reads it per miss).
func (c *Cache) Consults() int64 { return c.stats.Consults }

// Owner returns the decision-quality record for a manager id, creating it
// on first use. All negative ids share one scratch record: the kernel
// keeps no per-process book on NoOwner, but counters recorded against it
// still accumulate (and the call stays allocation-free).
func (c *Cache) Owner(id int) *OwnerStats {
	if id < 0 {
		return &c.noOwner
	}
	for len(c.owners) <= id {
		c.owners = append(c.owners, nil)
	}
	if c.owners[id] == nil {
		c.owners[id] = &OwnerStats{}
	}
	return c.owners[id]
}

// ownerRecord returns the existing record for owner, or nil.
func (c *Cache) ownerRecord(owner int) *OwnerStats {
	if owner < 0 || owner >= len(c.owners) {
		return nil
	}
	return c.owners[owner]
}

// Revoked reports whether owner's control privileges have been revoked.
func (c *Cache) Revoked(owner int) bool {
	if os := c.ownerRecord(owner); os != nil {
		return os.Revoked
	}
	return false
}

// --- global list primitives ---

func (c *Cache) unlink(b *Buf) {
	b.gprev.gnext = b.gnext
	b.gnext.gprev = b.gprev
	b.gprev, b.gnext = nil, nil
}

// linkMRU inserts b at the most-recently-used end.
func (c *Cache) linkMRU(b *Buf) {
	b.gprev = c.tail.gprev
	b.gnext = c.tail
	b.gprev.gnext = b
	c.tail.gprev = b
}

// swapPositions exchanges the list positions of a and b.
func (c *Cache) swapPositions(a, b *Buf) {
	if a == b {
		return
	}
	ap, bn := a.gprev, b.gnext
	if a.gnext == b { // adjacent: a before b
		c.unlink(a)
		a.gprev = b
		a.gnext = bn
		b.gnext = a
		bn.gprev = a
		return
	}
	if b.gnext == a { // adjacent: b before a
		c.swapPositions(b, a)
		return
	}
	an, bp := a.gnext, b.gprev
	c.unlink(a)
	c.unlink(b)
	b.gprev, b.gnext = ap, an
	ap.gnext, an.gprev = b, b
	a.gprev, a.gnext = bp, bn
	bp.gnext, bn.gprev = a, a
}

// lruScan returns the least-recently-used buffer that is not busy at time
// now, or the plain LRU buffer if everything is busy.
func (c *Cache) lruScan(now sim.Time) *Buf {
	for b := c.head.gnext; b != c.tail; b = b.gnext {
		if !b.Busy(now) {
			return b
		}
	}
	return c.head.gnext
}

// GlobalOrder returns the block IDs in the global list from LRU to MRU.
// It allocates the result; tests and diagnostics only, never the
// simulation path.
func (c *Cache) GlobalOrder() []BlockID {
	ids := make([]BlockID, 0, c.count)
	for b := c.head.gnext; b != c.tail; b = b.gnext {
		ids = append(ids, b.ID)
	}
	return ids
}

// Placeholders returns the number of live placeholders.
func (c *Cache) Placeholders() int { return c.ph.len() }

// --- main operations ---

// Lookup finds a cached block on behalf of the current owner. On a hit
// the block moves to the MRU end of the global list and the manager is
// told of the access; nil means a miss. Use LookupBy to identify the
// accessing process for shared-file ownership transfer.
func (c *Cache) Lookup(id BlockID, off, size int) *Buf {
	return c.LookupBy(id, NoOwner, off, size)
}

// LookupBy is Lookup with the accessing process identified: under
// SharedTransfer, a hit by a process other than the block's owner moves
// the block under the accessor's manager.
func (c *Cache) LookupBy(id BlockID, accessor int, off, size int) *Buf {
	b := c.table.get(id.pack())
	if b == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	if c.cfg.SharedTransfer && accessor != NoOwner && accessor != b.Owner {
		c.transferOwner(b, accessor)
	}
	b.Referenced = true
	c.unlink(b)
	c.linkMRU(b)
	c.pol.Touched(b)
	// A reference to a block some placeholder points at vindicates the
	// manager's decision to keep it: the kept block proved useful before
	// the replaced one was needed again, which is what LRU itself would
	// have preferred. The placeholder is dropped and no mistake charged.
	for len(b.holders) > 0 {
		c.dropPlaceholder(b.holders[len(b.holders)-1])
		c.stats.Vindicated++
	}
	if c.managed(b.Owner) {
		c.repl.BlockAccessed(b, off, size)
	}
	return b
}

// transferOwner hands b from its current manager to the accessor's.
func (c *Cache) transferOwner(b *Buf, accessor int) {
	// block_gone must fire even when managed(b.Owner) is false: a
	// *revoked* owner's blocks stay linked in its ACM levels (revocation
	// stops consultations, it does not unlink state), and re-owning a
	// still-linked node would let new_block splice two level lists
	// together. BlockGone no-ops on an unlinked node.
	if c.repl != nil {
		c.repl.BlockGone(b)
	}
	b.Owner = accessor
	c.stats.Transfers++
	if c.managed(accessor) {
		c.repl.NewBlock(b)
	}
}

// Peek finds a cached block without touching recency state or notifying
// the manager.
func (c *Cache) Peek(id BlockID) *Buf { return c.table.get(id.pack()) }

// managed reports whether owner has an active, non-revoked manager under a
// two-level policy.
func (c *Cache) managed(owner int) bool {
	if owner < 0 || !c.pol.TwoLevel() {
		return false
	}
	if os := c.ownerRecord(owner); os != nil && os.Revoked {
		return false
	}
	return c.repl.Managed(owner)
}

// Insert brings block id into the cache on behalf of owner, evicting if
// full. It returns the new buffer and, if an eviction occurred, the victim
// (so the caller can write back dirty data). The victim record is a
// per-cache scratch slot, valid only until the next Insert. Insert panics
// if the block is already cached — callers must Lookup first.
func (c *Cache) Insert(id BlockID, owner int, now sim.Time) (*Buf, *Victim) {
	k := id.pack()
	if c.table.get(k) != nil {
		panic(fmt.Sprintf("cache: Insert of cached block %v", id))
	}
	var victim *Victim
	if c.count >= c.cfg.Capacity {
		victim = c.evictFor(id, now)
	} else if ph := c.ph.get(k); ph != nil {
		// The overruled block came back while free buffers existed: the
		// placeholder still proves the earlier decision wrong, but no
		// candidate redirection is needed.
		pointed := ph.points
		c.dropPlaceholder(ph)
		c.recordMistake(pointed.Owner)
		if c.managed(pointed.Owner) {
			c.repl.PlaceholderUsed(id, pointed)
		}
	}
	b := c.allocBuf(id, owner)
	c.table.put(k, b)
	c.linkMRU(b)
	c.count++
	c.pol.Inserted(b)
	if c.managed(owner) {
		c.repl.NewBlock(b)
	}
	return b, victim
}

// evictFor chooses and evicts a victim to make room for missing block id,
// running the full two-level protocol.
func (c *Cache) evictFor(missing BlockID, now sim.Time) *Victim {
	// Step 1: pick the candidate. A placeholder for the missing block
	// overrides the LRU choice and reports the manager's earlier
	// mistake.
	var candidate *Buf
	if c.pol.Placeholders() {
		if ph := c.ph.get(missing.pack()); ph != nil {
			candidate = ph.points
			c.dropPlaceholder(ph)
			c.stats.PlaceholderHits++
			c.recordMistake(candidate.Owner)
			if c.managed(candidate.Owner) {
				c.repl.PlaceholderUsed(missing, candidate)
			}
			if candidate.Busy(now) {
				candidate = nil // cannot take a buffer mid-I/O
			}
		}
	}
	if candidate == nil {
		candidate = c.pol.Victim(missing, now)
	}

	// Step 2: consult the candidate's manager.
	chosen := candidate
	if c.managed(candidate.Owner) {
		c.stats.Consults++
		if alt := c.repl.ReplaceBlock(candidate, missing); alt != nil && alt != candidate {
			c.validateAlternative(candidate, alt, now)
			chosen = alt
			c.stats.Overrules++
			c.recordDecision(candidate.Owner)
			// Step 3: the policy mirrors the overrule in its structures
			// (LRU-SP/LRU-S swap list positions), then the placeholder
			// records the decision.
			c.pol.Overruled(candidate, chosen)
			if c.pol.Placeholders() {
				c.setPlaceholder(chosen.ID, candidate)
			}
		}
	}

	return c.evict(chosen)
}

// validateAlternative enforces the kernel-side checks on a manager's
// answer; a bad answer is a bug in the manager, so it panics.
func (c *Cache) validateAlternative(candidate, alt *Buf, now sim.Time) {
	if alt.Owner != candidate.Owner {
		panic(fmt.Sprintf("cache: manager %d offered block %v owned by %d",
			candidate.Owner, alt.ID, alt.Owner))
	}
	if c.table.get(alt.ID.pack()) != alt {
		panic(fmt.Sprintf("cache: manager offered uncached block %v", alt.ID))
	}
	if alt.Busy(now) {
		panic(fmt.Sprintf("cache: manager offered busy block %v", alt.ID))
	}
}

// evict removes b from the cache and returns the victim record (the
// per-cache scratch slot; the caller consumes it before the next Insert).
func (c *Cache) evict(b *Buf) *Victim {
	c.victim = Victim{ID: b.ID, Owner: b.Owner, Dirty: b.Dirty}
	// A dirty victim's bytes must survive the buffer for the write-back:
	// detach the slot into the victim record (the caller releases it).
	// Mid-fill buffers keep theirs — the fill completion still writes
	// into it, and the leaked buffer carries the slot out of circulation.
	if b.Dirty && b.Slot != nil && b.ValidAt != IOPending {
		c.victim.Slot = b.Slot
		b.Slot = nil
	}
	if !b.Referenced {
		c.stats.UnrefEvictions++
	}
	c.remove(b)
	c.stats.Evictions++
	return &c.victim
}

// remove takes b out of all cache structures, notifies the manager, and
// recycles the buffer.
func (c *Cache) remove(b *Buf) {
	c.table.del(b.ID.pack())
	c.unlink(b)
	c.count--
	// Placeholders pointing at b die with it.
	for _, ph := range b.holders {
		c.ph.del(ph.forID.pack())
		c.freePlaceholder(ph)
	}
	b.holders = b.holders[:0]
	// The policy unlinks its per-block state on every removal path —
	// eviction, invalidation, owner sweeps — before the buffer recycles.
	c.pol.Removed(b)
	// Unconditionally, not gated on managed(): a revoked owner's blocks
	// are still linked in its ACM levels, and recycling a linked node
	// would corrupt the intrusive lists. BlockGone no-ops when unlinked.
	if c.repl != nil {
		c.repl.BlockGone(b)
	}
	c.freeBuf(b)
}

// setPlaceholder records "forID was replaced while points was kept". Any
// previous placeholder for the same block is superseded.
func (c *Cache) setPlaceholder(forID BlockID, points *Buf) {
	k := forID.pack()
	if old := c.ph.get(k); old != nil {
		c.dropPlaceholder(old)
	}
	ph := c.allocPlaceholder(forID, points)
	c.ph.put(k, ph)
	points.holders = append(points.holders, ph)
}

// dropPlaceholder removes ph from the index and from its pointee's holder
// list, then recycles it.
func (c *Cache) dropPlaceholder(ph *placeholder) {
	c.ph.del(ph.forID.pack())
	hs := ph.points.holders
	for i, h := range hs {
		if h == ph {
			hs[i] = hs[len(hs)-1]
			hs[len(hs)-1] = nil
			ph.points.holders = hs[:len(hs)-1]
			break
		}
	}
	c.freePlaceholder(ph)
}

// recordDecision counts an overrule by owner.
func (c *Cache) recordDecision(owner int) {
	if owner == NoOwner {
		return
	}
	c.Owner(owner).Decisions++
}

// With Config.Revoke, a manager loses control once it has made at least
// revokeMinDecisions overrules and placeholders caught more than
// revokeMistakeRatio of them.
const (
	revokeMinDecisions = 200
	revokeMistakeRatio = 0.3
)

// recordMistake counts a placeholder-caught mistake and applies the
// revocation policy.
func (c *Cache) recordMistake(owner int) {
	if owner == NoOwner {
		return
	}
	os := c.Owner(owner)
	os.Mistakes++
	if c.cfg.Revoke && !os.Revoked && os.Decisions >= revokeMinDecisions &&
		float64(os.Mistakes) > revokeMistakeRatio*float64(os.Decisions) {
		os.Revoked = true
		c.stats.Revocations++
	}
}

// MarkDirty flags b as modified at time now (first write wins for aging).
func (c *Cache) MarkDirty(b *Buf, now sim.Time) {
	if !b.Dirty {
		b.Dirty = true
		b.DirtyAt = now
	}
}

// Clean clears the dirty flag after a write-back.
func (c *Cache) Clean(b *Buf) {
	b.Dirty = false
	b.DirtyAt = 0
}

// DirtyOlderThan returns the dirty buffers whose first write happened at or
// before cutoff, in global LRU order (oldest recency first).
func (c *Cache) DirtyOlderThan(cutoff sim.Time) []*Buf {
	var out []*Buf
	for b := c.head.gnext; b != c.tail; b = b.gnext {
		if b.Dirty && b.DirtyAt <= cutoff {
			out = append(out, b)
		}
	}
	return out
}

// InvalidateFile drops every cached block of the file, discarding dirty
// data (the file is gone, as when a temporary file is unlinked). It returns
// the number of blocks dropped.
func (c *Cache) InvalidateFile(id fs.FileID) int {
	var doomed []*Buf
	for b := c.head.gnext; b != c.tail; b = b.gnext {
		if b.ID.File == id {
			doomed = append(doomed, b)
		}
	}
	for _, b := range doomed {
		c.remove(b)
	}
	// Placeholders keyed by the dead file's blocks are stale too.
	var stale []*placeholder
	c.ph.forEach(func(k key, ph *placeholder) {
		if k.file() == id {
			stale = append(stale, ph)
		}
	})
	for _, ph := range stale {
		c.dropPlaceholder(ph)
	}
	return len(doomed)
}

// DisownOwner transfers every block owned by owner to NoOwner, leaving
// the blocks cached under the kernel's global policy alone, and drops the
// owner's decision record. This is how an owner/manager session ends: a
// departed client's warm blocks stay useful to whoever reads them next,
// and its id, never reused by the caller, is not asked about again.
func (c *Cache) DisownOwner(owner int) int {
	if owner >= 0 && owner < len(c.owners) {
		c.owners[owner] = nil
	}
	n := 0
	for b := c.head.gnext; b != c.tail; b = b.gnext {
		if b.Owner == owner {
			c.transferOwner(b, NoOwner)
			n++
		}
	}
	return n
}

// Drop removes b from the cache without producing a victim record: the
// caller has decided the contents are not worth writing back (a fill that
// failed with an I/O error). The manager is notified as for any removal.
func (c *Cache) Drop(b *Buf) {
	c.remove(b)
	c.stats.Evictions++
}

// CheckInvariants verifies internal consistency; tests call it after
// mutation storms. It panics with a description on the first violation.
func (c *Cache) CheckInvariants() {
	n := 0
	slots := make(map[*Slot]BlockID)
	for b := c.head.gnext; b != c.tail; b = b.gnext {
		n++
		if c.table.get(b.ID.pack()) != b {
			panic(fmt.Sprintf("cache: listed block %v not in table", b.ID))
		}
		if c.cfg.SlotBytes > 0 {
			if b.Slot == nil {
				panic(fmt.Sprintf("cache: cached block %v has no data slot", b.ID))
			}
			if prev, dup := slots[b.Slot]; dup {
				panic(fmt.Sprintf("cache: blocks %v and %v share a slot", prev, b.ID))
			}
			slots[b.Slot] = b.ID
		}
		for _, ph := range b.holders {
			if c.ph.get(ph.forID.pack()) != ph {
				panic(fmt.Sprintf("cache: holder of %v not registered", b.ID))
			}
			if ph.points != b {
				panic(fmt.Sprintf("cache: holder of %v points elsewhere", b.ID))
			}
		}
	}
	if n != c.count || n != c.table.len() {
		panic(fmt.Sprintf("cache: count %d, list %d, table %d disagree", c.count, n, c.table.len()))
	}
	if n > c.cfg.Capacity {
		panic(fmt.Sprintf("cache: %d blocks exceed capacity %d", n, c.cfg.Capacity))
	}
	c.ph.forEach(func(k key, ph *placeholder) {
		if k != ph.forID.pack() {
			panic("cache: placeholder key mismatch")
		}
		if c.table.get(k) != nil {
			panic(fmt.Sprintf("cache: placeholder exists for cached block %v", ph.forID))
		}
		if c.table.get(ph.points.ID.pack()) != ph.points {
			panic(fmt.Sprintf("cache: placeholder for %v points to evicted block", ph.forID))
		}
	})
	for _, s := range c.freeSlots {
		if s.Pinned() {
			panic("cache: pinned slot on the free list")
		}
	}
	if c.pooled > c.cfg.Capacity || c.heapSlots > 0 && c.pooled < c.cfg.Capacity {
		panic(fmt.Sprintf("cache: %d pool and %d heap slots at capacity %d", c.pooled, c.heapSlots, c.cfg.Capacity))
	}
	// Policies with internal structure audit themselves too (ARC walks
	// its T1/T2 lists and the ghost directory).
	if ci, ok := c.pol.(interface{ checkInvariants() }); ok {
		ci.checkInvariants()
	}
}
