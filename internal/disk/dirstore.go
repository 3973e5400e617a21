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
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// DirStore is a Store and BatchStore over a directory: one flat file per
// announced name, block blk at offset blk*BlockSize. Files are opened per
// run — a cluster reaches the directory only on a miss or a write-back,
// and handle caching would buy little there. A discard that covers the
// whole file — a remove gives back the file's whole extent — unlinks it,
// and a discard of a name with no file is a no-op; any other discarded
// block is written over with zeros, which reads as never-written, and the
// file keeps its length.
//
// Every server over one directory needs its own DirStore: the id→name
// map is the server's. Close is a no-op, since no one server owns the
// directory.
type DirStore struct {
	dir string

	mu    sync.RWMutex
	names map[int32]string // file id -> name (Announce)
}

// NewDirStore creates (if needed) and uses dir as the backing directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: store dir: %w", err)
	}
	return &DirStore{dir: dir, names: make(map[int32]string)}, nil
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

// ReadBlock and WriteBlock implement Store: a block is a run of one.
func (d *DirStore) ReadBlock(file, blk int32, dst []byte) error {
	return d.ReadBlocks([]BlockSpan{{file, blk}}, [][]byte{dst})[0]
}

func (d *DirStore) WriteBlock(file, blk int32, src []byte) error {
	return d.WriteBlocks([]BlockSpan{{file, blk}}, [][]byte{src})[0]
}

// ReadBlocks implements BatchStore: each same-file run of adjacent
// blocks is one open of the name's file.
func (d *DirStore) ReadBlocks(specs []BlockSpan, dsts [][]byte) []error {
	return d.eachRun(specs, dsts, checkDst, "read", readRun)
}

// WriteBlocks implements BatchStore: each same-file run of adjacent
// blocks is one open of the name's file, and a removed file's discards
// (nil entries) go there the same way, in place among them.
func (d *DirStore) WriteBlocks(specs []BlockSpan, srcs [][]byte) []error {
	return d.eachRun(specs, srcs, checkSrc, "write", writeRun)
}

// eachRun checks every span's buffer, splits the spans that pass into
// same-file runs of adjacent blocks and calls f with each run's file
// path, first block and buffers. A span whose buffer fails the check
// fails alone and ends the run before it; a failure to resolve or move
// a run is set on every span of the run.
func (d *DirStore) eachRun(specs []BlockSpan, bufs [][]byte, check func([]byte) error, verb string,
	f func(path string, start int32, bufs [][]byte) error) []error {
	errs := make([]error, len(specs))
	for i := range specs {
		errs[i] = check(bufs[i])
	}
	for lo := 0; lo < len(specs); {
		if errs[lo] != nil {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(specs) && errs[hi] == nil && specs[hi].File == specs[lo].File && specs[hi].Blk == specs[hi-1].Blk+1 {
			hi++
		}
		path, err := d.path(specs[lo].File)
		if err == nil {
			if err = f(path, specs[lo].Blk, bufs[lo:hi]); err != nil {
				err = fmt.Errorf("disk: %s %d/%d+%d: %w", verb, specs[lo].File, specs[lo].Blk, hi-lo, err)
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

// readRun fills dsts from the file at path, from block start on. A
// missing file or a short one reads as zeros.
func readRun(path string, start int32, dsts [][]byte) error {
	f, err := os.Open(path)
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
	off := int64(start) * BlockSize
	for _, dst := range dsts {
		n, err := f.ReadAt(dst, off)
		if err == io.EOF {
			clear(dst[n:])
		} else if err != nil {
			return err
		}
		off += BlockSize
	}
	return nil
}

// writeRun writes srcs to the file at path, from block start on, a nil
// entry as zeros. A run of discards alone makes no file, and unlinks one
// it covers to the end.
func writeRun(path string, start int32, srcs [][]byte) error {
	if !slices.ContainsFunc(srcs, func(src []byte) bool { return src != nil }) {
		fi, err := os.Stat(path)
		if os.IsNotExist(err) {
			return nil // never written: the blocks already read as zeros
		}
		if err == nil && start == 0 && fi.Size() <= int64(len(srcs))*BlockSize {
			return os.Remove(path)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	off := int64(start) * BlockSize
	for _, src := range srcs {
		if src == nil {
			src = zeroBlock[:]
		}
		if _, err := f.WriteAt(src, off); err != nil {
			return err
		}
		off += BlockSize
	}
	return f.Close()
}

// checkDst rejects a read buffer that is not a whole block, as MemStore
// and FileStore do.
func checkDst(dst []byte) error {
	if len(dst) != BlockSize {
		return fmt.Errorf("disk: read buffer is %d bytes, want %d", len(dst), BlockSize)
	}
	return nil
}

// zeroBlock is what writeRun writes over a discarded block.
var zeroBlock [BlockSize]byte

// Close implements Store.
func (d *DirStore) Close() error { return nil }
