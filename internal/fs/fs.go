// Package fs implements the simulated file system the cache sits under.
// It provides a flat namespace of files, each placed on one disk as a list
// of extents allocated from a per-disk cursor with first-fit reuse of freed
// space. Placement is what matters here: it determines which accesses the
// disk model sees as sequential, and files created or grown concurrently
// interleave their extents just as they would under a real FFS-style
// allocator (this drives the merge-phase seek behaviour of the sort
// workload).
package fs

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
)

// Sentinels for the failures a caller treats differently from a plain
// error; match them with errors.Is (the messages around them quote file
// names, which are the caller's data).
var (
	// ErrExists: Create found the name taken.
	ErrExists = errors.New("file exists")
	// ErrNoSpace: Create or Grow found the disk full.
	ErrNoSpace = errors.New("no space on disk")
)

// FileID identifies a file for the lifetime of the file system. IDs are
// never reused, so a stale ID can be detected.
type FileID int32

// NoFile is the zero FileID; no real file ever has it.
const NoFile FileID = 0

// extentBlocks is the allocation granularity: 16 blocks (128 KB),
// similar to FFS cylinder-group clustering.
const extentBlocks = 16

// extent is a contiguous run of blocks on a disk.
type extent struct {
	start, n int
}

// File is a simulated file. All sizes are in file-system blocks.
type File struct {
	id      FileID
	name    string
	disk    int
	size    int
	extents []extent
	removed bool
}

// ID returns the file's identifier.
func (f *File) ID() FileID { return f.id }

// Name returns the file's path name.
func (f *File) Name() string { return f.name }

// Disk returns the index of the disk holding the file.
func (f *File) Disk() int { return f.disk }

// Size returns the file length in blocks.
func (f *File) Size() int { return f.size }

// Removed reports whether the file has been deleted.
func (f *File) Removed() bool { return f.removed }

// BlockAddr maps file block number blk to its disk block address. It
// panics if blk is out of range — callers must bound their accesses.
func (f *File) BlockAddr(blk int) int {
	if blk < 0 || blk >= f.size {
		panic(fmt.Sprintf("fs: block %d out of range for %q (size %d)", blk, f.name, f.size))
	}
	for _, e := range f.extents {
		if blk < e.n {
			return e.start + blk
		}
		blk -= e.n
	}
	panic("fs: extent list shorter than size") // unreachable if invariants hold
}

// diskState tracks allocation on one disk.
type diskState struct {
	capacity int
	cursor   int
	free     []extent // sorted by start
	used     int
}

// FileSystem is the namespace plus per-disk allocators.
type FileSystem struct {
	disks   []*diskState
	byName  map[string]*File
	byID    map[FileID]*File
	lastID  FileID // the highest id made: ids ascend, so none is reused
	fileGap int
}

// Config controls file-system construction.
type Config struct {
	// DiskBlocks is the capacity of each disk, in blocks.
	DiskBlocks []int
	// FileGapBlocks is skipped before each new file's first allocation,
	// standing in for the inode, indirect blocks and fragmentation that
	// separate files on a real FFS disk. The gap makes the transition
	// from one file to the next a non-sequential disk access, which is
	// what the drives see in practice. Default 0.
	FileGapBlocks int
}

// New builds a file system over the given disks.
func New(cfg Config) *FileSystem {
	if len(cfg.DiskBlocks) == 0 {
		panic("fs: no disks")
	}
	f := &FileSystem{
		byName:  make(map[string]*File),
		byID:    make(map[FileID]*File),
		fileGap: cfg.FileGapBlocks,
	}
	for _, c := range cfg.DiskBlocks {
		if c <= 0 {
			panic("fs: disk with non-positive capacity")
		}
		f.disks = append(f.disks, &diskState{capacity: c})
	}
	return f
}

// Disks returns the number of disks.
func (fsys *FileSystem) Disks() int { return len(fsys.disks) }

// Used returns the number of allocated blocks on disk d.
func (fsys *FileSystem) Used(d int) int { return fsys.disks[d].used }

// Create makes a new file of the given size (in blocks) on disk d under
// id, which the caller hands out: it must be above every id made before,
// so an id is never reused and id order is creation order. Size 0
// creates an empty file that can Grow later.
func (fsys *FileSystem) Create(id FileID, name string, d int, sizeBlocks int) (*File, error) {
	if id <= fsys.lastID {
		return nil, fmt.Errorf("fs: create %q: id %d not above %d", name, id, fsys.lastID)
	}
	if d < 0 || d >= len(fsys.disks) {
		return nil, fmt.Errorf("fs: create %q: no disk %d", name, d)
	}
	if _, ok := fsys.byName[name]; ok {
		return nil, fmt.Errorf("fs: create %q: %w", name, ErrExists)
	}
	if sizeBlocks < 0 {
		return nil, fmt.Errorf("fs: create %q: negative size", name)
	}
	f := &File{id: id, name: name, disk: d}
	// Leave the inter-file gap (inode and friends) ahead of the file.
	ds := fsys.disks[d]
	if fsys.fileGap > 0 && ds.cursor+fsys.fileGap <= ds.capacity {
		ds.cursor += fsys.fileGap
	}
	if err := fsys.grow(f, sizeBlocks); err != nil {
		return nil, err
	}
	fsys.byName[name] = f
	fsys.byID[id] = f
	fsys.lastID = id
	return f, nil
}

// Lookup finds a file by name.
func (fsys *FileSystem) Lookup(name string) (*File, bool) {
	f, ok := fsys.byName[name]
	return f, ok
}

// ByID finds a live file by ID.
func (fsys *FileSystem) ByID(id FileID) (*File, bool) {
	f, ok := fsys.byID[id]
	return f, ok
}

// Files yields every live file in ascending id order, which is the
// order they were created in. The file system must not change while
// the sequence is being read.
func (fsys *FileSystem) Files() iter.Seq[*File] {
	return func(yield func(*File) bool) {
		for _, id := range slices.Sorted(maps.Keys(fsys.byID)) {
			if !yield(fsys.byID[id]) {
				return
			}
		}
	}
}

// Grow extends the file to newSize blocks. Shrinking is not supported;
// growing to the current size or less is a no-op.
func (fsys *FileSystem) Grow(f *File, newSize int) error {
	if f.removed {
		return fmt.Errorf("fs: grow %q: file removed", f.name)
	}
	if newSize <= f.size {
		return nil
	}
	return fsys.grow(f, newSize)
}

func (fsys *FileSystem) grow(f *File, newSize int) error {
	ds := fsys.disks[f.disk]
	need := newSize - f.size
	oldSize, oldExtents := f.size, len(f.extents)
	oldLastN := 0
	if oldExtents > 0 {
		oldLastN = f.extents[oldExtents-1].n
	}
	rollback := func() {
		// Return every block acquired by this call and restore the
		// extent list, so a failed grow leaks nothing.
		for _, e := range f.extents[oldExtents:] {
			ds.freeExtent(e)
			ds.used -= e.n
		}
		f.extents = f.extents[:oldExtents]
		if oldExtents > 0 && f.extents[oldExtents-1].n > oldLastN {
			last := &f.extents[oldExtents-1]
			grownBy := last.n - oldLastN
			ds.freeExtent(extent{start: last.start + oldLastN, n: grownBy})
			ds.used -= grownBy
			last.n = oldLastN
		}
		f.size = oldSize
	}
	for need > 0 {
		chunk := min(need, extentBlocks)
		e, ok := ds.alloc(chunk)
		if !ok {
			rollback()
			return fmt.Errorf("fs: disk %d full growing %q: %w", f.disk, f.name, ErrNoSpace)
		}
		// Merge with the previous extent when contiguous.
		if n := len(f.extents); n > 0 && f.extents[n-1].start+f.extents[n-1].n == e.start {
			f.extents[n-1].n += e.n
		} else {
			f.extents = append(f.extents, e)
		}
		f.size += e.n
		need -= e.n
	}
	return nil
}

// alloc takes one extent of exactly n blocks, first-fit from the free list,
// falling back to the cursor.
func (ds *diskState) alloc(n int) (extent, bool) {
	for i, fe := range ds.free {
		if fe.n >= n {
			e := extent{start: fe.start, n: n}
			if fe.n == n {
				ds.free = append(ds.free[:i], ds.free[i+1:]...)
			} else {
				ds.free[i] = extent{start: fe.start + n, n: fe.n - n}
			}
			ds.used += n
			return e, true
		}
	}
	if ds.cursor+n > ds.capacity {
		return extent{}, false
	}
	e := extent{start: ds.cursor, n: n}
	ds.cursor += n
	ds.used += n
	return e, true
}

// Remove deletes the file, returning its blocks to the free list. The
// *File remains valid as a tombstone (Removed reports true) so that caches
// holding its blocks can notice.
func (fsys *FileSystem) Remove(name string) error {
	f, ok := fsys.byName[name]
	if !ok {
		return fmt.Errorf("fs: remove %q: no such file", name)
	}
	ds := fsys.disks[f.disk]
	for _, e := range f.extents {
		ds.freeExtent(e)
	}
	ds.used -= f.size
	f.removed = true
	delete(fsys.byName, name)
	delete(fsys.byID, f.id)
	return nil
}

// freeExtent inserts e into the sorted free list, coalescing neighbours.
func (ds *diskState) freeExtent(e extent) {
	i := sort.Search(len(ds.free), func(i int) bool { return ds.free[i].start >= e.start })
	ds.free = append(ds.free, extent{})
	copy(ds.free[i+1:], ds.free[i:])
	ds.free[i] = e
	// Coalesce with successor, then predecessor.
	if i+1 < len(ds.free) && ds.free[i].start+ds.free[i].n == ds.free[i+1].start {
		ds.free[i].n += ds.free[i+1].n
		ds.free = append(ds.free[:i+1], ds.free[i+2:]...)
	}
	if i > 0 && ds.free[i-1].start+ds.free[i-1].n == ds.free[i].start {
		ds.free[i-1].n += ds.free[i].n
		ds.free = append(ds.free[:i], ds.free[i+1:]...)
	}
}

// FreeExtents returns the number of fragments in disk d's free list
// (useful for tests and fragmentation diagnostics).
func (fsys *FileSystem) FreeExtents(d int) int { return len(fsys.disks[d].free) }
