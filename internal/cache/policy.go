package cache

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Alloc names a registered allocation policy. It is a string type so the
// one parser/printer pair (ParseAlloc / String) serves every surface that
// names a policy — flags, experiment specs, stats labels — and so the
// zero value can keep meaning "the default" (GlobalLRU, as it did when
// Alloc was an integer enum).
type Alloc string

// The built-in allocation policies. The first four match the paper's
// Section 6 comparisons; ARC and AWRP are the adaptive extensions.
const (
	GlobalLRU Alloc = "global-lru" // plain global LRU, managers never consulted
	LRUSP     Alloc = "lru-sp"     // LRU with swapping and placeholders (the paper's policy)
	LRUS      Alloc = "lru-s"      // swapping but no placeholders ("unprotected")
	AllocLRU  Alloc = "alloc-lru"  // two-level over plain LRU: no swap, no placeholder
	ARC       Alloc = "arc"        // adaptive replacement: T1/T2 + ghost lists
	AWRP      Alloc = "awrp"       // adaptive weight ranking: frequency/recency score
)

// norm maps the zero value to the default policy. The integer enum's zero
// value was GlobalLRU; a Config or RunSpec built without an Alloc must
// keep meaning exactly that.
func (a Alloc) norm() Alloc {
	if a == "" {
		return GlobalLRU
	}
	return a
}

func (a Alloc) String() string { return string(a.norm()) }

// ErrUnknownAlloc reports a policy name absent from the registry. The
// server maps it to its own distinct wire status; errors.Is works through
// wrapping.
var ErrUnknownAlloc = errors.New("cache: unknown allocation policy")

// AllocPolicy is the allocation seam of two-level replacement: the
// pluggable strategy that picks which buffer the kernel takes on a miss,
// fed by upcalls at every insert, hit and removal so it can maintain its
// own structures.
//
// Contract:
//
//   - The Cache owns the global recency list unconditionally (linkMRU on
//     every insert and hit); utility walks (dirty scans, owner sweeps,
//     invariant checks) depend on it. A policy maintains only its own
//     extra state, threaded through Buf.pol — never heap-allocated per
//     block, preserving the arena discipline.
//   - Inserted(b) runs after b is linked and counted; Touched(b) after a
//     hit moved b to the global MRU end; Removed(b) just before b leaves
//     the cache (eviction, invalidation, owner sweep alike — the policy
//     must unlink any intrusive state unconditionally).
//   - Victim picks the candidate for missing. It must return a cached,
//     preferably non-busy buffer, and must never return nil while the
//     cache is non-empty (fall back to Cache.lruScan). It is only called
//     when the cache is full and no placeholder redirected the choice.
//   - Overruled(candidate, chosen) runs when a manager overruled the
//     candidate; the policy mirrors whatever position exchange its
//     structures need (LRU-SP swaps global list slots; ARC swaps T1/T2
//     slots and re-aims its pending ghost).
//   - TwoLevel gates manager consultation; Placeholders gates the
//     placeholder protocol (construction and candidate redirection).
type AllocPolicy interface {
	Name() Alloc
	Inserted(b *Buf)
	Touched(b *Buf)
	Removed(b *Buf)
	Victim(missing BlockID, now sim.Time) *Buf
	Overruled(candidate, chosen *Buf)
	TwoLevel() bool
	Placeholders() bool
}

// polNode is the allocation policy's per-buffer state, embedded in Buf so
// policies never allocate per block: intrusive T1/T2 linkage for ARC,
// frequency and recency for AWRP. Reset wholesale when a buffer recycles.
type polNode struct {
	prev, next *Buf  // ARC: resident-list linkage (nil when unlinked)
	list       uint8 // ARC: which resident list (arcInT1 / arcInT2)
	freq       int32 // AWRP: access count
	lastUse    int64 // AWRP: policy-local logical clock at last access
}

// allocFactories is the policy registry: every name a surface can parse.
// It is read-only, so concurrent ParseAlloc/New need no lock.
var allocFactories = map[Alloc]func(*Cache) AllocPolicy{
	GlobalLRU: lruFamily(GlobalLRU, false, false, false),
	LRUSP:     lruFamily(LRUSP, true, true, true),
	LRUS:      lruFamily(LRUS, true, false, true),
	AllocLRU:  lruFamily(AllocLRU, false, false, true),
	ARC:       func(c *Cache) AllocPolicy { return newARCPolicy(c) },
	AWRP:      func(c *Cache) AllocPolicy { return newAWRPPolicy(c) },
}

// ParseAlloc resolves a policy name to its registered Alloc. This is the
// one parser behind every name-accepting surface; unknown names (and the
// empty string — wire callers must be explicit) return ErrUnknownAlloc.
func ParseAlloc(s string) (Alloc, error) {
	if _, ok := allocFactories[Alloc(s)]; !ok {
		return "", fmt.Errorf("%w %q (have %v)", ErrUnknownAlloc, s, AllocNames())
	}
	return Alloc(s), nil
}

// AllocNames lists the registered policies, sorted for stable help text
// and error messages.
func AllocNames() []Alloc {
	names := make([]Alloc, 0, len(allocFactories))
	for n := range allocFactories {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// lruPolicy is the whole classic family — GlobalLRU, LRU-SP, LRU-S and
// ALLOC-LRU — over the Cache's own global recency list. The list is
// maintained by the Cache for every policy, so this policy stores nothing
// per block; the four variants differ only in the flags that gate
// manager consultation, position swapping and placeholders, exactly as
// the retired enum methods did.
type lruPolicy struct {
	c        *Cache
	name     Alloc
	swap     bool
	ph       bool
	twoLevel bool
}

// lruFamily returns the factory for one member of the classic family.
func lruFamily(name Alloc, swap, ph, twoLevel bool) func(*Cache) AllocPolicy {
	return func(c *Cache) AllocPolicy {
		return &lruPolicy{c: c, name: name, swap: swap, ph: ph, twoLevel: twoLevel}
	}
}

func (p *lruPolicy) Name() Alloc        { return p.name }
func (p *lruPolicy) Inserted(b *Buf)    {}
func (p *lruPolicy) Touched(b *Buf)     {}
func (p *lruPolicy) Removed(b *Buf)     {}
func (p *lruPolicy) TwoLevel() bool     { return p.twoLevel }
func (p *lruPolicy) Placeholders() bool { return p.ph }

func (p *lruPolicy) Victim(missing BlockID, now sim.Time) *Buf {
	return p.c.lruScan(now)
}

func (p *lruPolicy) Overruled(candidate, chosen *Buf) {
	if p.swap {
		p.c.swapPositions(candidate, chosen)
	}
}
