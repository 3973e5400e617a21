package core

import (
	"errors"
	"fmt"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/fs"
)

// liveOwner is one registered owner (a client session, in the daemon).
type liveOwner struct {
	name  string
	mgr   *acm.Manager
	stats ProcStats
	// runs is the per-file sequential-run detector for read-ahead, per
	// owner exactly as the DES keeps it per process.
	runs map[fs.FileID]raRun
	// raSweepAt is the size at which runs is next swept of removed
	// files (noteSequential), twice what the last sweep left: the detector
	// holds the files that exist, not every file the session ever read.
	raSweepAt int
}

// --- owner lifecycle ---

// AddOwner registers a new owner (one per client session) and returns
// its id. Ids are never reused: per-owner revocation history must not
// leak from a dead session to a new one.
func (l *Live) AddOwner(name string) int {
	id := len(l.owners)
	l.owners = append(l.owners, &liveOwner{name: name})
	return id
}

// owner returns a registered owner; a released one is as unknown as an
// id AddOwner never returned.
func (l *Live) owner(id int) (*liveOwner, error) {
	if id < 0 || id >= len(l.owners) || l.owners[id] == nil {
		return nil, ErrUnknownOwner
	}
	return l.owners[id], nil
}

// OwnerStats snapshots a registered owner's counters; ReleaseOwner
// returns the final ones.
func (l *Live) OwnerStats(id int) (ProcStats, error) {
	o, err := l.owner(id)
	if err != nil {
		return ProcStats{}, err
	}
	return o.stats, nil
}

// ReleaseOwner ends an owner's session: its manager (if any) is
// destroyed, and its blocks are disowned in place — they stay cached,
// dirty ones included, for the next reader, as a process's blocks do when
// it exits. This is the revoked-owner path of the cache exercised as a
// production operation — every client disconnect runs it. Nothing of
// the owner stays behind but its id's nil slot, here and in the cache
// and the ACM. Returns the owner's final counters.
func (l *Live) ReleaseOwner(id int) (ProcStats, error) {
	o, err := l.owner(id)
	if err != nil {
		return ProcStats{}, err
	}
	if o.mgr != nil {
		l.ctl.DestroyManager(id)
	}
	l.bc.DisownOwner(id)
	l.owners[id] = nil
	return o.stats, nil
}

func (l *Live) charge(owner int, f func(*ProcStats)) {
	if o, err := l.owner(owner); err == nil {
		f(&o.stats)
	}
}

// --- file management ---

// Create creates a file on disk d, initially sizeBlocks long.
func (l *Live) Create(owner int, name string, d, sizeBlocks int) (*fs.File, error) {
	if _, err := l.owner(owner); err != nil {
		return nil, err
	}
	if d < 0 || d >= l.fsys.Disks() {
		return nil, fmt.Errorf("core: no disk %d", d)
	}
	id := l.lastID + fs.FileID(max(l.cfg.shards, 1))
	f, err := l.fsys.Create(id, name, d, sizeBlocks)
	if err == nil || errors.Is(err, fs.ErrNoSpace) {
		l.lastID = id // a create the disk had no room for spends its id too
	}
	if err != nil {
		return nil, err
	}
	if wb := l.discarding[name]; wb != nil {
		l.shadowed[f.ID()] = wb
	}
	return f, nil
}

// Open resolves a file by name and counts the open.
func (l *Live) Open(owner int, name string) (*fs.File, error) {
	o, err := l.owner(owner)
	if err != nil {
		return nil, err
	}
	f, ok := l.fsys.Lookup(name)
	if !ok {
		return nil, ErrNotFound
	}
	o.stats.Opens++
	return f, nil
}

// Remove unlinks a file; its cached blocks (dirty or not) are discarded
// without I/O, as for an unlinked temporary file, and its whole extent
// on the store is given back, whoever wrote it: one discard of blocks 0
// to its size, queued behind the file's last write-back (or run inline
// when there is no write-behind executor). An empty file costs no store
// call.
func (l *Live) Remove(owner int, name string) error {
	if _, err := l.owner(owner); err != nil {
		return err
	}
	f, ok := l.fsys.Lookup(name)
	if !ok {
		return ErrNotFound
	}
	fid, size := f.ID(), f.Size()
	l.bc.InvalidateFile(fid)
	l.ctl.FileGone(fid)
	if err := l.fsys.Remove(name); err != nil {
		return err
	}
	delete(l.shadowed, fid)
	if size == 0 {
		return nil
	}
	specs := make([]disk.BlockSpan, size)
	for i := range specs {
		specs[i] = disk.BlockSpan{File: int32(fid), Blk: int32(i)}
	}
	wb := &WriteBack{
		ID:       cache.BlockID{File: fid},
		Owner:    cache.NoOwner,
		Discard:  specs,
		Conflict: true,
		name:     name,
	}
	if swb := l.cfg.StartWriteBack; swb != nil {
		l.discarding[name] = wb
		swb(wb)
		return nil
	}
	wb.Err = disk.Discard(l.store, specs)
	l.CompleteWriteBack(wb)
	return nil
}

// ReleaseFile gives up this kernel's copy of a file whose name moves to
// another holder: the file's dirty blocks go down the write-back path an
// eviction takes, then every cached block and placeholder of it is
// dropped; the name stays. done runs once those writes are at the store
// (inline without a write-behind executor) with the first failure. An
// unknown name is ErrNotFound at once, with no store call.
func (l *Live) ReleaseFile(owner int, name string, done func(error)) {
	if _, err := l.owner(owner); err != nil {
		done(err)
		return
	}
	f, ok := l.fsys.Lookup(name)
	if !ok {
		done(ErrNotFound)
		return
	}
	fid, failed := f.ID(), error(nil)
	for blk := range int32(f.Size()) {
		b := l.bc.Peek(cache.BlockID{File: fid, Num: blk})
		if b == nil || !b.Dirty || b.Slot == nil {
			continue
		}
		sl := b.Slot
		b.Slot = nil // detached for the write-back, as by an eviction
		if err := l.writeBack(b.ID, sl, sl.Data(), b.Owner, &failed); err != nil && failed == nil {
			failed = err
		}
	}
	l.bc.InvalidateFile(fid)
	if swb := l.cfg.StartWriteBack; swb != nil {
		swb(&WriteBack{ID: cache.BlockID{File: fid}, Owner: cache.NoOwner, Conflict: true,
			released: func() { done(failed) }})
		return
	}
	done(failed)
}

// --- the fbehavior surface ---

// EnableControl registers owner as a cache manager.
func (l *Live) EnableControl(owner int) error {
	o, err := l.owner(owner)
	if err != nil {
		return err
	}
	if o.mgr != nil {
		return ErrControlled
	}
	m, err := l.ctl.CreateManager(owner)
	if err != nil {
		return err
	}
	o.mgr = m
	o.stats.FbehaviorCalls++
	return nil
}

// DisableControl withdraws cache control. No-op when not controlling.
func (l *Live) DisableControl(owner int) error {
	o, err := l.owner(owner)
	if err != nil {
		return err
	}
	if o.mgr == nil {
		return nil
	}
	l.ctl.DestroyManager(owner)
	o.mgr = nil
	o.stats.FbehaviorCalls++
	return nil
}

// Controlled reports whether owner manages its cache.
func (l *Live) Controlled(owner int) bool {
	o, err := l.owner(owner)
	return err == nil && o.mgr != nil
}

func (l *Live) mgr(owner int) (*liveOwner, *acm.Manager, error) {
	o, err := l.owner(owner)
	if err != nil {
		return nil, nil, err
	}
	if o.mgr == nil {
		return nil, nil, ErrNoControl
	}
	o.stats.FbehaviorCalls++
	return o, o.mgr, nil
}

// SetPriority sets the long-term cache priority of a file.
func (l *Live) SetPriority(owner int, fid fs.FileID, prio int) error {
	_, m, err := l.mgr(owner)
	if err != nil {
		return err
	}
	return m.SetPriority(fid, prio)
}

// GetPriority reads the long-term cache priority of a file.
func (l *Live) GetPriority(owner int, fid fs.FileID) (int, error) {
	_, m, err := l.mgr(owner)
	if err != nil {
		return 0, err
	}
	return m.Priority(fid), nil
}

// SetPolicy sets the replacement policy of a priority level.
func (l *Live) SetPolicy(owner int, prio int, pol acm.Policy) error {
	_, m, err := l.mgr(owner)
	if err != nil {
		return err
	}
	return m.SetPolicy(prio, pol)
}

// GetPolicy reads the replacement policy of a priority level.
func (l *Live) GetPolicy(owner int, prio int) (acm.Policy, error) {
	_, m, err := l.mgr(owner)
	if err != nil {
		return 0, err
	}
	return m.PolicyOf(prio), nil
}

// SetTempPri assigns a temporary priority to cached blocks of a file.
func (l *Live) SetTempPri(owner int, fid fs.FileID, startBlk, endBlk int32, prio int) error {
	_, m, err := l.mgr(owner)
	if err != nil {
		return err
	}
	return m.SetTempPri(l.bc, fid, startBlk, endBlk, prio)
}
