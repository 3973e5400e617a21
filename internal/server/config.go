package server

import (
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/stats"
)

// Config configures a Server.
type Config struct {
	// Kernel configures the Live kernels. Config overwrites
	// Kernel.StartFill, Kernel.StartWriteBack and Kernel.Store (each
	// shard gets a keyspace slice of the shared store): the server owns
	// fill and write-back execution.
	Kernel core.LiveConfig
	// WritebackDepth bounds the asynchronous write-behind queue per
	// shard. 0 (the default) disables write-behind: dirty victims write
	// back synchronously inside the evicting request, reproducing the
	// pre-write-behind request/IO ordering exactly — the mode the oracle
	// test pins. With depth N, a shard queues dirty victims and cuts the
	// queue into batches written N at a time (at most 64), a
	// partial batch at shutdown; when N victims already wait behind the
	// batch at the store, a victim with no same-block ordering constraint
	// degrades to a synchronous inline write (backpressure) rather than
	// growing the queue.
	WritebackDepth int
	// Shards is the number of independent kernel shards (default 1).
	// Each shard owns its own Live — its own cache arena, ACM, and fill
	// accounting — and its own lock; files hash to a shard at
	// open time, so every block of a file lives in exactly one
	// replacement domain. Shards=1 is the unsharded server, bit for bit.
	Shards int
	// MaxInflight bounds pipelined requests per session (default 32).
	// The bound is what lets a shard respond without ever blocking on a
	// slow client: a session holds one token per
	// unanswered request, so the response channel never fills.
	MaxInflight int
	// IdleTimeout disconnects a session with no traffic for this long
	// (default 2 minutes); disconnect releases the session's owners.
	IdleTimeout time.Duration
	// CheckInvariants runs each shard kernel's cross-structure invariant
	// checks after every session close (tests; too slow for production).
	CheckInvariants bool
}

// announcer is a base store that addresses files by name (disk.DirStore,
// a cluster node's origin): it is told every successful open and
// create's file id and name, the mapping it needs to resolve the ids it
// is handed on fills and write-backs. Announce runs under a shard lock;
// it must be cheap and must not call back into the server.
type announcer interface{ Announce(file int32, name string) }

func (c *Config) fillDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
}

// StatsReply is the JSON body of an OpStats response. With more than one
// shard, Session and Kernel aggregate over the shards and PerShard
// carries the breakdown; a 1-shard server omits PerShard so its wire
// responses are identical to the unsharded server's. Alloc names the
// allocation policy every shard runs, fixed when the server was built.
// Control is the session's SessionInfo.Control.
type StatsReply struct {
	Session  core.ProcStats   `json:"session"`
	Control  cache.OwnerStats `json:"control"`
	Kernel   stats.Snapshot   `json:"kernel"`
	PerShard []stats.Snapshot `json:"per_shard,omitempty"`
	Alloc    string           `json:"alloc"`
}

// SessionInfo describes one live session in a Metrics snapshot. Owner is
// the session's owner id in shard 0 (owner ids are per-shard), or
// cache.NoOwner while shard 0 does not list the session — it has not
// opened there yet, or its close has already run; Stats aggregates the
// session's counters across all shards. Control is its manager's decision
// quality: decisions and mistakes summed over the shards, Revoked if any
// shard revoked it (each shard's cache judges its own share alone).
type SessionInfo struct {
	Owner   int
	Name    string
	Stats   core.ProcStats
	Control cache.OwnerStats
}

// ShardMetrics is one shard's slice of a Metrics snapshot.
type ShardMetrics struct {
	Kernel             stats.Snapshot
	Requests           int64
	Refused            int64
	FillsInflight      int
	WritebacksInflight int
	CachedBlocks       int
	DataSlots          int // pool plus heap slots (cache.Cache.Slots)
}

// Metrics is a point-in-time server snapshot. The top-level fields
// aggregate over the shards; Shards carries the per-shard breakdown.
// Alloc is the allocation policy of every shard (Kernel.Alloc).
type Metrics struct {
	Kernel             stats.Snapshot
	Alloc              string
	SessionsActive     int
	SessionsTotal      int64
	Requests           int64
	Refused            int64
	FillsInflight      int
	WritebacksInflight int
	CachedBlocks       int
	DataSlots          int
	Shards             []ShardMetrics
	Sessions           []SessionInfo
}
