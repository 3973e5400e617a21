package main

import (
	"fmt"

	"repro/internal/acm"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
)

// liveSink drives a bare core.Live on the calling goroutine, fills and
// write-backs synchronous over a zero-latency MemStore: the cache and
// kernel layers alone, with no socket, framing, shard loop or worker
// between the op and the data structure.
type liveSink struct {
	l       *core.Live
	owner   int
	files   map[int]fs.FileID
	scratch []byte
	ops     int64
	failed  int64
	firstEr error
}

func newLiveSink() *liveSink {
	cfg := pinnedKernel()
	cfg.Store = disk.NewMemStore()
	l := core.NewLive(cfg)
	return &liveSink{l: l, owner: l.AddOwner("replay"), files: make(map[int]fs.FileID), scratch: make([]byte, blockBytes)}
}

func (s *liveSink) fileID(file int) uint32 { return uint32(s.files[file]) }
func (s *liveSink) shards() int            { return 1 }

func (s *liveSink) note(err error) {
	if err != nil {
		s.failed++
		if s.firstEr == nil {
			s.firstEr = err
		}
	}
}

// ReadDone implements core.ReadReply.
func (s *liveSink) ReadDone(_ []byte, _ bool, err error) { s.note(err) }

func (s *liveSink) writeDone(_ bool, err error) { s.note(err) }

func (s *liveSink) do(o *op) error {
	s.ops++
	fid := s.files[o.file]
	var err error
	switch o.kind {
	case opRead:
		s.l.ReadTo(s.owner, fid, o.blk, o.off, o.size, s)
	case opWrite:
		s.l.Write(s.owner, fid, o.blk, o.off, payload(s.scratch, o), s.writeDone)
	case opCreate:
		var f *fs.File
		if f, err = s.l.Create(s.owner, o.name, o.disk, o.blocks); err == nil {
			s.files[o.file] = f.ID()
		}
	case opOpen:
		var f *fs.File
		if f, err = s.l.Open(s.owner, o.name); err == nil {
			s.files[o.file] = f.ID()
		}
	case opRemove:
		err = s.l.Remove(s.owner, o.name)
		delete(s.files, o.file)
	case opControl:
		if o.enable {
			err = s.l.EnableControl(s.owner)
		} else {
			err = s.l.DisableControl(s.owner)
		}
	case opSetPriority:
		err = s.l.SetPriority(s.owner, fid, o.prio)
	case opSetPolicy:
		err = s.l.SetPolicy(s.owner, o.prio, acm.Policy(o.policy))
	case opSetTempPri:
		err = s.l.SetTempPri(s.owner, fid, o.start, o.end, o.prio)
	}
	if err != nil {
		s.note(fmt.Errorf("%s file %d (%q): %w", o.kind, o.file, o.name, err))
	}
	return nil
}
