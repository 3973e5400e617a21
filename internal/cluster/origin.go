// origin.go — the cluster's shared backing store, addressed by file
// *name* instead of wire id. Wire file ids are a per-node encoding
// (local*shards+shard, assigned in open order), so two nodes give the
// same file different ids; the name is the only coordinate every node
// agrees on. The per-node NodeStore translates id→name at the fill
// boundary and reads or writes the origin here.

package cluster

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"repro/internal/disk"
)

// Origin is the cluster's authoritative block backend: it holds every
// block written back by any node and not since discarded, keyed by file
// name. Blocks never written read as zeros, matching disk.Store
// semantics — discards included: a nil source returns the block to the
// never-written state, which is what keeps a re-created name from
// reading its previous life. Implementations must be safe for concurrent
// use — every node's write-behind batches and fill workers reach it at
// once.
type Origin interface {
	// ReadRun / WriteRun move a run of consecutive blocks of the named
	// file, starting at start, in one call — the batch shape the fill
	// workers and write-behind hand down (the store layer's run
	// coalescing, kept alive through the cluster tier); a single block is
	// a run of one. ReadRun fills each dst (len BlockSize); WriteRun
	// persists each src, and a nil entry of srcs discards its block.
	ReadRun(name string, start int32, dsts [][]byte) error
	WriteRun(name string, start int32, srcs [][]byte) error
	Close() error
}

// MemOrigin is an in-memory Origin: the backend for tests, benchmarks,
// and single-machine clusters of in-process nodes (which share one
// instance — that sharing is what makes it a common backing store).
type MemOrigin struct {
	mu     sync.Mutex
	blocks map[string][]byte // "name\x00blk" -> BlockSize bytes
}

func NewMemOrigin() *MemOrigin {
	return &MemOrigin{blocks: make(map[string][]byte)}
}

func originKey(name string, blk int32) string {
	return name + "\x00" + fmt.Sprint(blk)
}

func (m *MemOrigin) ReadRun(name string, start int32, dsts [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, dst := range dsts {
		if b, ok := m.blocks[originKey(name, start+int32(i))]; ok {
			copy(dst, b)
		} else {
			clear(dst)
		}
	}
	return nil
}

func (m *MemOrigin) WriteRun(name string, start int32, srcs [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, src := range srcs {
		if src == nil {
			delete(m.blocks, originKey(name, start+int32(i)))
			continue
		}
		b := make([]byte, len(src))
		copy(b, src)
		m.blocks[originKey(name, start+int32(i))] = b
	}
	return nil
}

// Close is a no-op: a MemOrigin is shared by every node of an
// in-process cluster, so no one node owns its lifetime.
func (m *MemOrigin) Close() error { return nil }

// Blocks reports how many blocks the origin holds.
func (m *MemOrigin) Blocks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blocks)
}

// Dump snapshots the origin's full contents as key -> block copy, keys
// sorted on iteration order being irrelevant — the differential test's
// byte-level comparison surface.
func (m *MemOrigin) Dump() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.blocks))
	for k, v := range m.blocks {
		b := make([]byte, len(v))
		copy(b, v)
		out[k] = b
	}
	return out
}

// Keys returns the written block keys, sorted (diagnostics for a failed
// differential comparison).
func (m *MemOrigin) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.blocks))
	for k := range m.blocks {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DirOrigin is a directory-backed Origin for multi-process clusters on
// a shared filesystem: one flat file per cached file (name
// percent-escaped into a filename), blocks at offset blk*BlockSize.
// Files are opened per call — the origin is the slow tier by
// construction, and handle caching would buy little under the cluster's
// cache-first access pattern. A discard that covers the whole file — a
// remove gives back the file's whole extent — unlinks it, and a discard
// of a name with no file is a no-op; any other discarded block is
// written over with zeros, which reads as never-written, and the file
// keeps its length.
type DirOrigin struct {
	dir string
}

// NewDirOrigin creates (if needed) and uses dir as the backing
// directory.
func NewDirOrigin(dir string) (*DirOrigin, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("origin dir: %w", err)
	}
	return &DirOrigin{dir: dir}, nil
}

func (d *DirOrigin) path(name string) string {
	return filepath.Join(d.dir, url.PathEscape(name))
}

func (d *DirOrigin) ReadRun(name string, start int32, dsts [][]byte) error {
	f, err := os.Open(d.path(name))
	if os.IsNotExist(err) {
		for _, dst := range dsts {
			clear(dst)
		}
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	off := int64(start) * disk.BlockSize
	for _, dst := range dsts {
		n, err := f.ReadAt(dst, off)
		if err == io.EOF {
			clear(dst[n:]) // short file: the tail reads as zeros
		} else if err != nil {
			return err
		}
		off += int64(len(dst))
	}
	return nil
}

func (d *DirOrigin) WriteRun(name string, start int32, srcs [][]byte) error {
	if !slices.ContainsFunc(srcs, func(src []byte) bool { return src != nil }) {
		fi, err := os.Stat(d.path(name))
		if os.IsNotExist(err) {
			return nil // never written: the blocks already read as zeros
		}
		if err == nil && start == 0 && fi.Size() <= int64(len(srcs))*disk.BlockSize {
			return os.Remove(d.path(name))
		}
	}
	f, err := os.OpenFile(d.path(name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	off := int64(start) * disk.BlockSize
	for _, src := range srcs {
		if src == nil {
			src = zeroBlock[:]
		}
		if _, err := f.WriteAt(src, off); err != nil {
			return err
		}
		off += int64(len(src))
	}
	return nil
}

// zeroBlock is what DirOrigin writes over a discarded block.
var zeroBlock [disk.BlockSize]byte

func (d *DirOrigin) Close() error { return nil }
