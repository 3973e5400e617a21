// Package cluster is the multi-node tier over acfcd: N independent
// daemons, each the sharded server of PRs 5-8, joined by a static
// membership list and consistent-hash file→node routing — the same
// FNV-1a affinity idea the server uses for file→shard placement, one
// level up (file → owning node → owning shard). On a local miss the
// owning node reads the block from the shared origin (the lancache
// pattern: fetch once, serve locally after), through the disk.Store
// interface the fill pipeline already drives.
package cluster

import (
	"sort"
	"strconv"
)

// ringReplicas is the virtual-node count per member: enough vnodes that
// the max/min file-count skew across nodes stays within ~2x without
// making Owner's binary search noticeable. A constant, so every ring
// built over one member list — each node's and each client's — places
// files identically.
const ringReplicas = 128

// Ring is an immutable consistent-hash ring over a membership list.
// Each member contributes ringReplicas virtual points, hashed FNV-1a 64;
// a name's owner is the member whose first point is clockwise of the
// name's hash. Immutability is what makes membership changes cheap to
// reason about: With/Without build a new ring, and the minimal-movement
// property — only the keys whose owning arc touched the changed node
// remap, ~1/N of the keyspace — follows from every other member's
// points staying exactly where they were.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	owner int // index into members
}

// NewRing builds a ring over members (order is irrelevant; the hash
// decides placement).
func NewRing(members []string) *Ring {
	r := &Ring{members: append([]string(nil), members...)}
	sort.Strings(r.members)
	r.points = make([]ringPoint, 0, len(r.members)*ringReplicas)
	for i, m := range r.members {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(m + "#" + strconv.Itoa(v)),
				owner: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// hash64 is FNV-1a over the string — the 64-bit sibling of the server's
// file→shard name hash — with a final avalanche mix (murmur3's fmix64).
// Raw FNV is fine for bucketing by modulo but not for ring placement:
// its last-byte mixing is weak, and vnode keys differ only in their
// numeric tails, which without the finalizer clusters one member's
// points badly enough to hand it a 2x+ share of the keyspace.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Members returns the membership list, sorted.
func (r *Ring) Members() []string { return r.members }

// Len is the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning name, or "" on an empty ring.
func (r *Ring) Owner(name string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point clockwise of the top of the space
	}
	return r.members[r.points[i].owner]
}

// Without returns a ring with member removed (a planned leave or a
// death); removing an absent member returns an equivalent ring.
func (r *Ring) Without(member string) *Ring {
	out := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			out = append(out, m)
		}
	}
	return NewRing(out)
}

// With returns a ring with member added (a join); adding a present
// member returns an equivalent ring.
func (r *Ring) With(member string) *Ring {
	for _, m := range r.members {
		if m == member {
			return NewRing(r.members)
		}
	}
	return NewRing(append(append([]string(nil), r.members...), member))
}

// Has reports membership.
func (r *Ring) Has(member string) bool {
	for _, m := range r.members {
		if m == member {
			return true
		}
	}
	return false
}
