// tournament.go — the allocation-policy tournament: every registered
// kernel policy over the scan-heavy concurrent mixes, head to head.
//
// The paper's experiments hold the kernel policy mostly fixed (LRU-SP,
// with GlobalLRU and ALLOC-LRU as comparison points) and vary manager
// smartness. The tournament inverts that: every application runs
// Oblivious — no manager ever overrules — so the kernel allocation
// policy is the only thing that differs between columns, and the table
// isolates its pure effect. Mixes are the Figure 5 combinations that
// contain sort or glimpse, the workloads whose long sequential scans
// flush an LRU working set; those are where scan-resistant policies
// (ARC's two-list structure, AWRP's frequency weighting) can beat
// GlobalLRU, and so where the choice of -alloc matters.
package expt

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/workload"
)

// TournamentMixes are the scan-heavy Figure 5 combinations: every mix
// that includes sort (pure sequential scans) or gli (index scans).
var TournamentMixes = [][]string{
	{"cs2", "gli"},
	{"gli", "sort"},
	{"din", "sort"},
	{"sort", "ldk"},
	{"cs1", "gli", "ldk"},
	{"din", "cs3", "gli", "ldk"},
}

// TournamentResult is one (policy, mix) cell, kept structured so tests
// can assert on it without re-parsing the rendered table.
type TournamentResult struct {
	Policy     cache.Alloc
	Mix        string
	HitRatio   float64
	ElapsedSec float64
	BlockIOs   int64
}

// RunTournament executes the full policy × mix matrix at the given
// cache size (MB; 0 means the paper's default 6.4) and returns the
// cells in policy-major order: the cell of policy p (in AllocNames order)
// and mix m is out[p*len(TournamentMixes)+m]. All runs are submitted
// before any is collected, so a parallel Runner executes the whole matrix
// at once.
func RunTournament(r *Runner, cacheMB float64) []TournamentResult {
	if cacheMB == 0 {
		cacheMB = 6.4
	}
	policies := cache.AllocNames()
	out := make([]TournamentResult, 0, len(policies)*len(TournamentMixes))
	var rows []func()
	for _, pol := range policies {
		for _, mix := range TournamentMixes {
			f := r.Submit(RunSpec{
				Apps:    mixSpec(mix, workload.Oblivious),
				CacheMB: cacheMB,
				Alloc:   pol,
			})
			rows = append(rows, func() {
				res := f.Wait()
				out = append(out, TournamentResult{
					Policy:     pol,
					Mix:        strings.Join(mix, "+"),
					HitRatio:   hitRatio(res.CacheStats),
					ElapsedSec: res.TotalElapsed.Seconds(),
					BlockIOs:   res.TotalIOs,
				})
			})
		}
	}
	collect(rows)
	return out
}

func hitRatio(s cache.Stats) float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Tournament renders the matrix as one table per metric: hit ratio and
// elapsed time, mixes down, policies across.
func Tournament(r *Runner) []Table {
	results := RunTournament(r, 6.4)
	policies := cache.AllocNames()
	header := []string{"mix"}
	for _, p := range policies {
		header = append(header, p.String())
	}
	hit := Table{
		ID:    "tournament-hit",
		Title: "Allocation-policy tournament: global hit ratio (6.4 MB, oblivious apps)",
		Note: "Every registered kernel policy over the scan-heavy Figure 5 " +
			"mixes with no manager steering, so the allocation policy is the " +
			"only variable. Scan-resistant policies separate from the LRU " +
			"family on the sort- and glimpse-heavy rows.",
		Header: header,
	}
	el := Table{
		ID:     "tournament-elapsed",
		Title:  "Allocation-policy tournament: total elapsed seconds",
		Header: header,
	}
	for m, mix := range TournamentMixes {
		name := strings.Join(mix, "+")
		hrow, erow := []string{name}, []string{name}
		for p := range policies {
			res := results[p*len(TournamentMixes)+m]
			hrow = append(hrow, fmt.Sprintf("%.3f", res.HitRatio))
			erow = append(erow, fmtSecs(res.ElapsedSec))
		}
		hit.Rows = append(hit.Rows, hrow)
		el.Rows = append(el.Rows, erow)
	}
	return []Table{hit, el}
}
