// store.go — NodeStore: one cluster node's base block store. It sits
// where MemStore or FileStore would (under the server's per-shard remap,
// driven by the same fill workers and write-behind batches), translates
// the wire file ids it is handed back to names, and serves every access
// — fill, write-back, discard — from the shared origin under the file's
// name.
//
// Failures are never folded into a generic fill error: each one is
// wrapped in ErrOrigin and returned up the fill path, where the kernel
// counts it (read_errors, writeback_errors) and surfaces it to the
// requesting session as an io status.

package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/disk"
)

// ErrOrigin wraps every failure of the cluster store, so callers can
// distinguish "the origin could not produce or take the block" from
// kernel-level errors. It maps to the io status on the wire.
var ErrOrigin = errors.New("cluster: origin access failed")

// NodeStore implements disk.Store and disk.BatchStore over the shared
// origin. It learns the id→name mapping from the server, which announces
// every open and create to its base store — always before any fill can
// reference the id.
type NodeStore struct {
	origin Origin

	mu    sync.RWMutex
	names map[int32]string // wire id -> name (Announce)
}

// NewNodeStore builds the store over the given origin.
func NewNodeStore(origin Origin) *NodeStore {
	return &NodeStore{origin: origin, names: make(map[int32]string)}
}

// Announce records a wire id → name binding; the server calls it on
// every open and create. Re-announcing (every open) is idempotent.
func (ns *NodeStore) Announce(wire int32, name string) {
	ns.mu.Lock()
	ns.names[wire] = name
	ns.mu.Unlock()
}

func (ns *NodeStore) name(wire int32) (string, error) {
	ns.mu.RLock()
	name, ok := ns.names[wire]
	ns.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%w: no name announced for wire file %d", ErrOrigin, wire)
	}
	return name, nil
}

// ReadBlock and WriteBlock implement disk.Store: a block is a run of one,
// so routing and error wrapping are written once, below.
func (ns *NodeStore) ReadBlock(file, blk int32, dst []byte) error {
	return ns.ReadBlocks([]disk.BlockSpan{{File: file, Blk: blk}}, [][]byte{dst})[0]
}

func (ns *NodeStore) WriteBlock(file, blk int32, src []byte) error {
	return ns.WriteBlocks([]disk.BlockSpan{{File: file, Blk: blk}}, [][]byte{src})[0]
}

// ReadBlocks implements disk.BatchStore: each same-file adjacent run (the
// shape the fill workers coalesce into) is one run read at the origin.
func (ns *NodeStore) ReadBlocks(specs []disk.BlockSpan, dsts [][]byte) []error {
	return ns.eachRun(specs, "read", func(name string, lo, hi int) error {
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
// a failure — no name announced, or f's, which is the origin's — is set,
// wrapped, on every block of its run. The callers above hand down
// batches the fill workers and write-behind already sorted and grouped,
// but arbitrary spans still split correctly — just into more runs.
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
				err = fmt.Errorf("%w: %s %s/%d+%d: %v", ErrOrigin, verb, name, specs[lo].Blk, hi-lo, err)
			}
		}
		if err != nil {
			for i := lo; i < hi; i++ {
				errs[i] = err
			}
		}
		lo = hi
	}
	return errs
}

// Close is a no-op: the origin is shared by the whole cluster and is
// closed by whoever created it (both built-in origins have no-op Closes).
func (ns *NodeStore) Close() error { return nil }
