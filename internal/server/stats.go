package server

import (
	"encoding/json"

	"repro/internal/cache"
)

// Metrics snapshots the server counters; ok is false once shutdown has
// retired any shard.
func (s *Server) Metrics() (Metrics, bool) { return s.metrics(nil) }

// metrics is the one stats snapshot behind every surface: Metrics and
// /metrics with only nil, a session's wire stats reply with only set —
// then that session alone is listed, and a draining shard refuses (ok
// false) as it refuses the session's other requests.
func (s *Server) metrics(only *session) (Metrics, bool) {
	s.mu.Lock()
	shards, alloc := s.shards, s.cfg.Kernel.Alloc
	s.mu.Unlock()
	if shards == nil {
		return Metrics{}, false
	}
	m := Metrics{
		Alloc:         alloc.String(),
		SessionsTotal: s.sessionsTotal.Load(),
		Requests:      s.xRequests.Load(),
		Refused:       s.xRefused.Load(),
	}
	at := make(map[*session]int) // a session's index in m.Sessions
	for _, sh := range shards {
		answered := false
		sh.ask(func(sh *shard) {
			if only != nil && sh.draining {
				return
			}
			sh.snapshot(&m, at, only)
			answered = true
		})
		if !answered {
			return Metrics{}, false // retired, or refusing the session
		}
	}
	m.SessionsActive = len(m.Sessions)
	return m, true
}

// snapshot adds the shard's counters to m, and those of its registered
// sessions — of only alone when that is non-nil: a stats request pays for
// its own session, not for every other. A counter added here shows on
// all three surfaces. It runs under the shard lock, on the asker's own
// goroutine, which is what makes writing to the asker's m safe.
func (sh *shard) snapshot(m *Metrics, at map[*session]int, only *session) {
	sm := ShardMetrics{
		Kernel:             sh.kern.Snapshot(),
		Requests:           sh.requests,
		Refused:            sh.refused,
		FillsInflight:      int(sh.fillsIssued - sh.fillsDone),
		WritebacksInflight: writeBacks(sh.wbq),
		CachedBlocks:       sh.kern.Cache().Len(),
		DataSlots:          sh.kern.Cache().Slots(),
	}
	m.Shards = append(m.Shards, sm)
	m.Kernel.Accumulate(sm.Kernel)
	m.Requests += sm.Requests
	m.Refused += sm.Refused
	m.FillsInflight += sm.FillsInflight
	m.WritebacksInflight += sm.WritebacksInflight
	m.CachedBlocks += sm.CachedBlocks
	m.DataSlots += sm.DataSlots
	add := func(se *session) {
		j, seen := at[se]
		if !seen {
			j, at[se] = len(m.Sessions), len(m.Sessions)
			m.Sessions = append(m.Sessions, SessionInfo{Owner: cache.NoOwner, Name: se.name})
		}
		if sh.idx == 0 {
			m.Sessions[j].Owner = se.owners[0]
		}
		// OwnerStats fails only on an unregistered id, and every session
		// in sh.sessions is registered.
		st, _ := sh.kern.OwnerStats(se.owners[sh.idx])
		si := &m.Sessions[j]
		si.Stats.Add(st)
		ctl := sh.kern.Cache().Owner(se.owners[sh.idx])
		si.Control.Decisions += ctl.Decisions
		si.Control.Mistakes += ctl.Mistakes
		si.Control.Revoked = si.Control.Revoked || ctl.Revoked
	}
	if only != nil {
		add(only)
		return
	}
	for se := range sh.sessions {
		add(se)
	}
}

// serveStats serves OpStats: the wire view of the session's own Metrics.
// Reader-orchestrated like broadcastCtl.
func (s *Server) serveStats(se *session, r *request) {
	s.xRequests.Add(1)
	m, ok := s.metrics(se)
	if !ok {
		s.xRefused.Add(1)
		se.send(r.id, StatusRefused, []byte("server shutting down"))
		return
	}
	sr := StatsReply{Session: m.Sessions[0].Stats, Control: m.Sessions[0].Control, Kernel: m.Kernel, Alloc: m.Alloc}
	if len(m.Shards) > 1 {
		for _, sm := range m.Shards {
			sr.PerShard = append(sr.PerShard, sm.Kernel)
		}
	}
	body, err := json.Marshal(sr)
	if err != nil {
		se.sendErr(r.id, err)
		return
	}
	se.send(r.id, StatusOK, body)
}
