// replay.go — the one translation of a recorded transcript (the DES's
// control and access events, expt.Record's output) into calls on a
// Session. acload wraps it with counting, timing and its retry policy;
// the server's oracle test drives it bare.

package client

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fs"
)

// Replay replays one process's events through S, event by event: Ctl for
// a control event, Access for a block access. Recorded file ids resolve
// to the server's at each create event. The zero value with S set is
// ready to use.
type Replay struct {
	S      Session
	Prefix string // prepended to every recorded file name
	NoData bool   // reads bring no payload back

	files      map[fs.FileID]fs.FileID // recorded id -> server id
	names      map[fs.FileID]string    // recorded id -> server name, for Restore
	controlled bool
	buf        []byte // read destination, reused
	payload    []byte // what every write writes: byte i is byte(i)
}

// Restore makes s the replay's session after rebuilding on it what the
// events so far established: control re-enabled if it was on, every live
// file re-opened so the recorded ids resolve again. (Priorities are
// per-owner manager state; the replay reissues them only as the
// transcript reaches them, like the restarted real application would.)
// It is the OnConnect hook of a Redialer that reconnects a replay.
func (r *Replay) Restore(s Session) error {
	if r.controlled {
		if err := s.Control(true); err != nil {
			return err
		}
	}
	for rid, name := range r.names {
		f, err := s.Open(name)
		if err != nil {
			return err
		}
		r.files[rid] = f.ID
	}
	r.S = s
	return nil
}

// Ctl issues one control event and, on success, records what it changed:
// the file maps and the control flag.
func (r *Replay) Ctl(ct core.CtlEvent) error {
	switch ct.Op {
	case core.CtlCreateFile:
		name := r.Prefix + ct.FileName
		f, err := r.S.Create(name, ct.Disk, ct.Size)
		if err != nil {
			return err
		}
		if r.files == nil {
			r.files, r.names = make(map[fs.FileID]fs.FileID), make(map[fs.FileID]string)
		}
		r.files[ct.File], r.names[ct.File] = f.ID, name
	case core.CtlRemoveFile:
		if err := r.S.Remove(r.Prefix + ct.FileName); err != nil {
			return err
		}
		delete(r.files, ct.File)
		delete(r.names, ct.File)
	case core.CtlControl:
		if err := r.S.Control(ct.Enable); err != nil {
			return err
		}
		r.controlled = ct.Enable
	case core.CtlSetPriority:
		_, err := r.S.Fbehavior(FbSetPriority, FbArgs{File: r.files[ct.File], Prio: ct.Prio})
		return err
	case core.CtlSetPolicy:
		_, err := r.S.Fbehavior(FbSetPolicy, FbArgs{Prio: ct.Prio, Policy: ct.Policy})
		return err
	case core.CtlSetTempPri:
		_, err := r.S.Fbehavior(FbSetTempPri, FbArgs{File: r.files[ct.File], Start: ct.Start, End: ct.End, Prio: ct.Prio})
		return err
	}
	return nil
}

// Access issues one block access — a write of the replay's fixed pattern,
// or a read (ReadNoData when r.NoData) — and reports whether it hit.
func (r *Replay) Access(a core.Access) (hit bool, err error) {
	fid, ok := r.files[a.File]
	if !ok {
		return false, fmt.Errorf("access to file %d before its create event", a.File)
	}
	if r.buf == nil {
		r.buf, r.payload = make([]byte, core.BlockSize), make([]byte, core.BlockSize)
		for i := range r.payload {
			r.payload[i] = byte(i)
		}
	}
	switch {
	case a.Write:
		return r.S.Write(fid, a.Block, a.Off, r.payload[:a.Size])
	case r.NoData:
		return r.S.ReadNoData(fid, a.Block, a.Off, a.Size)
	}
	return r.S.ReadInto(fid, a.Block, a.Off, a.Size, r.buf)
}
