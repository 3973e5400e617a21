package server

import (
	"fmt"
	"net/http"
	"sort"
)

// MetricsHandler returns an http.Handler exposing the server's counters
// as Prometheus-style plaintext. The kernel block (aggregated over the
// shards) is rendered by stats.Snapshot.WriteMetrics, so the counter
// names are exactly the wire stats reply's json names (the ones
// benchmark/ reports) with an acfcd prefix; server-level gauges,
// per-shard sections (the same schema, labeled {shard="k"}), and
// per-session gauges follow.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m, ok := s.Metrics()
		if !ok {
			http.Error(w, "server shut down", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.Kernel.WriteMetrics(w, "acfcd")
		fmt.Fprintf(w, "acfcd_sessions_active %d\n", m.SessionsActive)
		fmt.Fprintf(w, "acfcd_sessions_total %d\n", m.SessionsTotal)
		fmt.Fprintf(w, "acfcd_requests_total %d\n", m.Requests)
		fmt.Fprintf(w, "acfcd_refused_total %d\n", m.Refused)
		fmt.Fprintf(w, "acfcd_fills_inflight %d\n", m.FillsInflight)
		fmt.Fprintf(w, "acfcd_writebacks_inflight %d\n", m.WritebacksInflight)
		fmt.Fprintf(w, "acfcd_cached_blocks %d\n", m.CachedBlocks)
		fmt.Fprintf(w, "acfcd_data_slots %d\n", m.DataSlots)
		fmt.Fprintf(w, "acfcd_alloc_policy{policy=%q} 1\n", m.Alloc)
		for i, sm := range m.Shards {
			l := fmt.Sprintf(`{shard="%d"}`, i)
			sm.Kernel.WriteMetricsLabeled(w, "acfcd_shard", l)
			fmt.Fprintf(w, "acfcd_shard_requests_total%s %d\n", l, sm.Requests)
			fmt.Fprintf(w, "acfcd_shard_refused_total%s %d\n", l, sm.Refused)
			fmt.Fprintf(w, "acfcd_shard_fills_inflight%s %d\n", l, sm.FillsInflight)
			fmt.Fprintf(w, "acfcd_shard_writebacks_inflight%s %d\n", l, sm.WritebacksInflight)
			fmt.Fprintf(w, "acfcd_shard_cached_blocks%s %d\n", l, sm.CachedBlocks)
			fmt.Fprintf(w, "acfcd_shard_data_slots%s %d\n", l, sm.DataSlots)
		}
		sort.Slice(m.Sessions, func(i, j int) bool { return m.Sessions[i].Owner < m.Sessions[j].Owner })
		for _, se := range m.Sessions {
			l := fmt.Sprintf(`{owner="%d",addr=%q}`, se.Owner, se.Name)
			fmt.Fprintf(w, "acfcd_session_reads%s %d\n", l, se.Stats.ReadCalls)
			fmt.Fprintf(w, "acfcd_session_writes%s %d\n", l, se.Stats.WriteCalls)
			fmt.Fprintf(w, "acfcd_session_hits%s %d\n", l, se.Stats.Hits)
			fmt.Fprintf(w, "acfcd_session_misses%s %d\n", l, se.Stats.Misses)
			fmt.Fprintf(w, "acfcd_session_block_ios%s %d\n", l, se.Stats.BlockIOs())
			fmt.Fprintf(w, "acfcd_session_decisions%s %d\n", l, se.Control.Decisions)
			fmt.Fprintf(w, "acfcd_session_mistakes%s %d\n", l, se.Control.Mistakes)
			revoked := 0
			if se.Control.Revoked {
				revoked = 1
			}
			fmt.Fprintf(w, "acfcd_session_revoked%s %d\n", l, revoked)
		}
	})
}
