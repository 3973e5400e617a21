package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/expt"
)

// des_paper is the reproduction itself: one lap of every experiment the
// paper's evaluation needs (expt.Order) plus the policy tournament, run
// serially on a fresh runner with no warm-up, because a batch tool's
// users pay the cold start. It is the only workload in which sim,
// workload, expt and core.System do the work and the server layers do
// none. The simulations are deterministic, so it takes no input from
// the seed; what varies between runs is host time alone.

// goldenFile holds the SHA-256 of each experiment's rendered tables, one
// "<hex>  <id>" line each, generated from the commit that added the
// benchmark. A simulator change that moves any table by a byte fails
// the run; on a mismatch the run prints the hash it got.
//
//go:embed golden/des_tables.sha256
var goldenFile string

func parseGolden() (map[string]string, error) {
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(goldenFile), "\n") {
		sum, id, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != hex.EncodedLen(sha256.Size) {
			return nil, fmt.Errorf("benchmark: golden/des_tables.sha256: bad line %q", line)
		}
		golden[id] = sum
	}
	return golden, nil
}

// desShortIDs is the lap a run too short for the whole one makes: quick
// experiments only, for development; such a run is not comparable.
var desShortIDs = []string{"table1", "table2", "table3", "table4", "vm"}

// desSetUps is how many times des_paper sets up. Its set-up is small —
// the environment header, the golden hashes, a runner — so it repeats
// more often than a server's to report a steady median.
const desSetUps = 51

// runDES runs des_paper. It fills both metric sets from its one lap; the
// isolated probes run only when traced.
func runDES(cfg runConfig) (*result, error) {
	var env environment
	var golden map[string]string
	var runner *expt.Runner
	var setupS []float64
	for i := 0; i < desSetUps; i++ {
		start := time.Now()
		var err error
		if env, err = newEnvironment(cfg.root, cfg.seed, cfg.seconds); err != nil {
			return nil, err
		}
		if golden, err = parseGolden(); err != nil {
			return nil, err
		}
		runner = expt.NewRunner(1)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	env.Commit, env.Dirty = gitState(cfg.root)

	ids := desIDs
	if !cfg.full() {
		ids = desShortIDs
	}
	res := &result{EndToEnd: make(map[string]float64), PerLayer: make(map[string]float64), Env: env}
	e2e, layer := res.EndToEnd, res.PerLayer
	walls := make([]float64, 0, len(ids))
	cpu0, start := cpuTime(), time.Now()
	for _, id := range ids {
		t0 := time.Now()
		tables := expt.Experiments[id](runner)
		var out bytes.Buffer
		for i := range tables {
			tables[i].Render(&out)
		}
		wall := time.Since(t0).Seconds()
		walls = append(walls, wall)
		layer["expt.wall_s."+id] = wall
		res.Attempted++
		if sum := sha256.Sum256(out.Bytes()); hex.EncodeToString(sum[:]) != golden[id] {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("%s: tables hash to %x, golden says %s", id, sum, golden[id]))
		}
		if id == "fig4" {
			mae, err := ioRatioMAE(tables)
			if err != nil {
				return nil, err
			}
			layer["des.io_ratio_mae"] = mae
		}
	}
	wall, cpu := time.Since(start).Seconds(), cpuTime()-cpu0
	rss := peakRSSMB()
	snap, memo := runner.KernelSnapshot(), runner.Stats()
	accesses := float64(snap.Cache.Hits + snap.Cache.Misses)

	// A request here is a simulated block access; the unit of work a user
	// waits for is an experiment, so the latency is an experiment's wall
	// time: of eleven, the 95th percentile is the slowest.
	e2e["setup_s"] = median(setupS)
	e2e["rss_mb"] = rss
	e2e["cpu_us_per_req"] = ratio(float64(cpu)/1e3, accesses)
	e2e["req_per_s"] = ratio(accesses, wall)
	e2e["lat_p95_us"] = slices.Max(walls) * 1e6
	e2e["hit_ratio"] = ratio(float64(snap.Cache.Hits), accesses)

	layer["des.wall_s"] = wall
	layer["des.tables_match"] = 0
	if res.Failed == 0 {
		layer["des.tables_match"] = 1
	}
	layer["expt.memo_hit_ratio"] = ratio(float64(memo.Hits), float64(memo.Hits+memo.Misses))
	advances := float64(snap.Sim.EventsScheduled + snap.Sim.FastAdvances)
	layer["sim.ns_per_event"] = ratio(wall*1e9, advances)
	layer["sim.fast_advance_share"] = ratio(float64(snap.Sim.FastAdvances), advances)
	layer["sim.events_scheduled"] = float64(snap.Sim.EventsScheduled)
	layer["sim.handoffs"] = float64(snap.Sim.Handoffs)
	layer["cache.des_hits"] = float64(snap.Cache.Hits)
	layer["cache.des_misses"] = float64(snap.Cache.Misses)
	layer["cache.des_consults"] = float64(snap.Cache.Consults)
	layer["cache.des_overrules"] = float64(snap.Cache.Overrules)
	layer["cache.des_placeholder_hits"] = float64(snap.Cache.PlaceholderHits)
	if cfg.trace {
		simProbes(layer)
		cacheMetrics(layer)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// ioRatioMAE is the mean absolute error of the simulated LRU-SP over
// original-kernel block-I/O ratio against the paper's appendix, over
// the eight applications and four cache sizes of Figure 4's I/O table.
func ioRatioMAE(fig4 []expt.Table) (float64, error) {
	for _, t := range fig4 {
		if t.ID != "table6" {
			continue
		}
		sum := 0.0
		for _, row := range t.Rows {
			// app, MB, sim orig, sim sp, ...
			paper, ok := expt.PaperSingles[row[0]]
			mb, err1 := strconv.ParseFloat(row[1], 64)
			orig, err2 := strconv.ParseFloat(row[2], 64)
			sp, err3 := strconv.ParseFloat(row[3], 64)
			size := sort.SearchFloat64s(expt.Sizes, mb)
			if !ok || err1 != nil || err2 != nil || err3 != nil || size == len(expt.Sizes) || expt.Sizes[size] != mb {
				return 0, fmt.Errorf("benchmark: fig4's I/O table has a row the paper does not: %v", row)
			}
			sum += math.Abs(sp/orig - float64(paper.IOsSP[size])/float64(paper.IOsOrig[size]))
		}
		return sum / float64(len(t.Rows)), nil
	}
	return 0, fmt.Errorf("benchmark: fig4 returned no I/O table")
}
