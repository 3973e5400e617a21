// replay.go — the one translation of a recorded transcript (the DES's
// control and access events, expt.Record's output) into calls on
// Sessions, one per recorded process. acload wraps it with counting and
// timing; the server's oracle test drives it bare.

package client

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fs"
)

// Replay replays a recorded run as the DES ran it: process p's events
// through the p-th session, one event at a time in transcript order.
// Recorded file ids resolve to the server's at each create event. The
// DES records its pre-run file population as System creates by process
// -1; each goes to the first process that touches the file, or to
// process 0 if none does.
type Replay struct {
	events   []expt.ReplayEvent
	sessions []Session
	prefix   string                  // prepended to every recorded file name
	nodata   bool                    // reads bring no payload back
	first    map[fs.FileID]int       // file -> the process that issues its System create
	files    map[fs.FileID]fs.FileID // recorded id -> server id
	buf      []byte                  // read destination, reused
	payload  []byte                  // what every write writes: byte i is byte(i)
}

// NewReplay returns a Replay of events over sessions, one per recorded
// process, every file name under prefix; nodata makes reads bring no
// payload back.
func NewReplay[S Session](sessions []S, events []expt.ReplayEvent, prefix string, nodata bool) *Replay {
	r := &Replay{events: events, prefix: prefix, nodata: nodata, first: make(map[fs.FileID]int),
		files: make(map[fs.FileID]fs.FileID), buf: make([]byte, core.BlockSize), payload: make([]byte, core.BlockSize)}
	for _, s := range sessions {
		r.sessions = append(r.sessions, s)
	}
	for i := range r.payload {
		r.payload[i] = byte(i)
	}
	for _, ev := range events {
		f, p := ev.Access.File, int(ev.Access.Proc)
		if ev.IsCtl {
			f, p = ev.Ctl.File, ev.Ctl.Proc
		}
		if _, seen := r.first[f]; !seen && p >= 0 {
			r.first[f] = p
		}
	}
	return r
}

// Run steps every event in order, waiting for each reply. Any wire or
// status error ends the replay.
func (r *Replay) Run() error {
	for i, ev := range r.events {
		if _, err := r.Step(ev); err != nil {
			return fmt.Errorf("event %d (%+v): %w", i, ev, err)
		}
	}
	return nil
}

// Step issues one of the replay's events through its process's session
// and, for an access, reports whether it hit.
func (r *Replay) Step(ev expt.ReplayEvent) (hit bool, err error) {
	if !ev.IsCtl {
		return r.access(r.sessions[ev.Access.Proc], ev.Access)
	}
	p := ev.Ctl.Proc
	if p < 0 {
		p = r.first[ev.Ctl.File]
	}
	return false, r.ctl(r.sessions[p], *ev.Ctl.CtlEvent)
}

// ctl issues one control event on s and, on success, records the file
// ids it created or removed.
func (r *Replay) ctl(s Session, ct core.CtlEvent) error {
	switch ct.Op {
	case core.CtlCreateFile:
		f, err := s.Create(r.prefix+ct.FileName, ct.Disk, ct.Size)
		if err != nil {
			return err
		}
		r.files[ct.File] = f.ID
	case core.CtlRemoveFile:
		if err := s.Remove(r.prefix + ct.FileName); err != nil {
			return err
		}
		delete(r.files, ct.File)
	case core.CtlControl:
		return s.Control(ct.Enable)
	case core.CtlSetPriority:
		_, err := s.Fbehavior(FbSetPriority, FbArgs{File: r.files[ct.File], Prio: ct.Prio})
		return err
	case core.CtlSetPolicy:
		_, err := s.Fbehavior(FbSetPolicy, FbArgs{Prio: ct.Prio, Policy: ct.Policy})
		return err
	case core.CtlSetTempPri:
		_, err := s.Fbehavior(FbSetTempPri, FbArgs{File: r.files[ct.File], Start: ct.Start, End: ct.End, Prio: ct.Prio})
		return err
	}
	return nil
}

// access issues one block access on s — a write of the replay's fixed
// pattern, or a read (ReadNoData when nodata) — and reports whether it
// hit.
func (r *Replay) access(s Session, a core.Access) (hit bool, err error) {
	fid, ok := r.files[a.File]
	if !ok {
		return false, fmt.Errorf("access to file %d before its create event", a.File)
	}
	switch {
	case a.Write:
		return s.Write(fid, a.Block, a.Off, r.payload[:a.Size])
	case r.nodata:
		return s.ReadNoData(fid, a.Block, a.Off, a.Size)
	}
	return s.ReadInto(fid, a.Block, a.Off, a.Size, r.buf)
}
