// dirstore.go — DirStore: a Store over a directory, one file per name.
//
// A block store addressed by file id only works for one server: ids are
// assigned in open order, so two servers give the same file different
// ids. The name is the coordinate every server agrees on, which is what
// lets the nodes of a cluster fill from, and write back to, one shared
// directory. The server announces each open and create's id and name to
// its base store (Announce), before any fill or write-back can name the
// id, and DirStore keys its files by that name.

package disk

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
)

// DirStore is a Store and BatchStore over a directory: one flat file per
// announced name, block blk at offset blk*BlockSize, moved by the run
// path FileStore uses too (runs.go). Unlike FileStore's, files are
// opened per run: the directory is shared, and another node may unlink
// and create a name again under a descriptor kept open. A discard that
// covers the whole file — a remove gives back the file's whole extent —
// unlinks it, and a discard of a name with no file is a no-op; any other
// discarded block is written over with zeros, which reads as
// never-written, and the file keeps its length.
//
// Every server over one directory needs its own DirStore: the id→name
// map is the server's. Close is a no-op, since no one server owns the
// directory.
type DirStore struct {
	fileRuns
	dir string

	mu    sync.RWMutex
	names map[int32]string // file id -> name (Announce)
}

// NewDirStore creates (if needed) and uses dir as the backing directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: store dir: %w", err)
	}
	d := &DirStore{dir: dir, names: make(map[int32]string)}
	d.init(d)
	return d, nil
}

// Announce binds file id to name; the server calls it on every open and
// create. Re-announcing (every open) is idempotent.
func (d *DirStore) Announce(file int32, name string) {
	d.mu.Lock()
	d.names[file] = name
	d.mu.Unlock()
}

// path is the file that holds name's blocks: its percent-escape, so a
// "/" stays inside the name. Escaping leaves "", "." and ".." as they
// are, and they name the directory or its parent, so a name that is
// empty or starts with a dot gets a "%" in front — which no escape
// produces, as it is not followed by two hex digits.
func (d *DirStore) path(file int32) (string, error) {
	d.mu.RLock()
	name, ok := d.names[file]
	d.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("disk: no name announced for file %d", file)
	}
	esc := url.PathEscape(name)
	if esc == "" || esc[0] == '.' {
		esc = "%" + esc
	}
	return filepath.Join(d.dir, esc), nil
}

// acquire, release and drop are the run path's way to the name's file.
func (d *DirStore) acquire(file int32, create bool) (*storeFile, error) {
	path, err := d.path(file)
	if err != nil {
		return nil, err
	}
	return openStoreFile(path, create)
}

func (d *DirStore) release(sf *storeFile) error { return sf.f.Close() }

func (d *DirStore) drop(file, start int32, n int) (bool, error) {
	path, err := d.path(file)
	if err != nil {
		return false, err
	}
	return dropCovered(path, start, n)
}

// Close implements Store.
func (d *DirStore) Close() error { return nil }
