package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// runConfig is what the command line asks of one workload run.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	root    string // repository root
	outDir  string // benchmark/out
}

// full reports a run long enough to be worth a real warm-up and whole
// laps; a shorter one is for development and cuts both.
func (c runConfig) full() bool { return c.seconds >= 10 }

// result is one workload's outcome: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one, or both.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Notes say why a result is not correct: the first failed operation,
	// a claim about what the workload isolates that a window did not meet.
	Notes []string    `json:"notes,omitempty"`
	Env   environment `json:"-"`
}

// windowResult is one window as the controller saw it: the merged
// client statistics and the snapshots at its edges.
type windowResult struct {
	planned time.Duration // the time the window was asked to run
	dur     time.Duration // the time it took, last response included
	rssMB   float64       // resident set once the window's garbage is collected

	stats         connStats
	before, after snapshot
	storeSpans    []storeSpan
	readCall      hist
}

// kernel is the window's share of the server's kernel counters;
// high-water marks are the value at the window's end.
func (r *windowResult) kernel() stats.Snapshot {
	var d stats.Snapshot
	subCounters(reflect.ValueOf(&d.Cache).Elem(), reflect.ValueOf(r.after.server.Kernel.Cache), reflect.ValueOf(r.before.server.Kernel.Cache))
	subCounters(reflect.ValueOf(&d.Fill).Elem(), reflect.ValueOf(r.after.server.Kernel.Fill), reflect.ValueOf(r.before.server.Kernel.Fill))
	return d
}

// subCounters sets every integer field of dst to after minus before,
// except high-water marks, which keep after's value.
func subCounters(dst, after, before reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		v := after.Field(i).Int()
		if !strings.Contains(dst.Type().Field(i).Name, "HighWater") {
			v -= before.Field(i).Int()
		}
		dst.Field(i).SetInt(v)
	}
}

func (r *windowResult) store() storeCounts { return r.after.store.sub(r.before.store) }

func (r *windowResult) cacheHitRatio() float64 {
	k := r.kernel().Cache
	return ratio(float64(k.Hits), float64(k.Hits+k.Misses))
}

func (r *windowResult) cpuUsPerReq() float64 {
	return ratio(float64(r.after.cpu-r.before.cpu)/1e3, float64(r.stats.done))
}

func (r *windowResult) reqPerSec() float64 { return ratio(float64(r.stats.done), r.dur.Seconds()) }

// ratio is a/b, or 0 when b is 0: a ratio of nothing reads as nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runWindow drives one window on every connection of h and returns what
// it saw. sample traces one request in sample (0: none) and the store's
// calls with them.
func runWindow(h *harness, wl workload, w *window, sample uint32) (*windowResult, error) {
	per := make([]*connStats, len(h.conns))
	for i, c := range h.conns {
		per[i] = new(connStats)
		c.win.Store(per[i])
		c.sample = sample
	}
	h.store.trace(sample > 0)
	w.conns = len(h.conns)
	w.gate = newLapGate(len(h.conns))
	r := new(windowResult)
	var err error
	if r.before, err = h.snap(); err != nil {
		return nil, err
	}
	w.start = time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(h.conns))
	for i, c := range h.conns {
		c.winStart = int64(w.start.Sub(c.epoch))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = wl.drive(c, i, w); errs[i] == nil {
				errs[i] = c.quiesce()
			}
		}()
	}
	wg.Wait()
	if r.after, err = h.snap(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.traits().name, err)
		}
	}
	r.planned, r.dur = w.dur, r.after.at.Sub(w.start)
	r.rssMB = liveRSSMB()
	for _, st := range per {
		r.stats.merge(st)
	}
	r.storeSpans, r.readCall = h.store.trace(false)
	return r, nil
}

// setUp starts a harness for wl and runs its set-up, timing the whole:
// the environment header every result needs, server start, connections,
// file creation and population.
func setUp(wl workload, cfg runConfig, epoch time.Time) (*harness, environment, time.Duration, error) {
	start := time.Now()
	env, err := newEnvironment(cfg.root, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, env, 0, err
	}
	tr := wl.traits()
	h, err := startHarness(tr.store, tr.depth, epoch, cfg.outDir)
	if err != nil {
		return nil, env, 0, err
	}
	if err := wl.setup(h.sinks()); err != nil {
		h.stop()
		return nil, env, 0, fmt.Errorf("%s: set-up: %w", tr.name, err)
	}
	for _, c := range h.conns {
		if err := c.quiesce(); err != nil {
			h.stop()
			return nil, env, 0, fmt.Errorf("%s: set-up: %w", tr.name, err)
		}
	}
	if tr.store == storeMemSlow {
		// Populated at memory speed; from here on every call costs.
		h.store.setLatency(openStoreLat)
	}
	return h, env, time.Since(start), nil
}

// An untraced run sets up setUpsBefore times before it measures and
// again afterwards, until it has setUps timings or the later ones have
// taken setUpBudget: set-up time is reported as the median, so that one
// slow start does not read as a regression, and a set-up of a few
// milliseconds needs more than three timings for a steady median. The
// later set-ups come after the window so that the servers they leave
// behind are not in its memory; a shortened run skips them.
const (
	setUpsBefore = 3
	setUps       = 11
	setUpBudget  = 1500 * time.Millisecond
)

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runServer runs one server workload: set-up, warm-up, then either one
// untraced window of cfg.seconds (end-to-end metrics) or, traced, an
// untraced and a traced window of half that each plus the isolated
// layer replays (per-layer metrics).
func runServer(wl workload, cfg runConfig) (*result, error) {
	epoch, tr := time.Now(), wl.traits()
	n := setUpsBefore
	if cfg.trace {
		n = 1
	}
	var h *harness
	var env environment
	var setupS []float64
	for i := 0; i < n; i++ {
		if h != nil {
			if err := h.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if h, env, took, err = setUp(wl, cfg, epoch); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer func() {
		if h != nil { // an error return: the result is already lost
			h.stop()
		}
	}()
	env.Commit, env.Dirty = gitState(cfg.root)

	full := cfg.full()
	widx := 0
	// An open loop climbs its rungs in the traced pass; the end-to-end
	// pass offers the middle rate alone, warm-up and all, so that every
	// second of it is a sample of what it reports.
	rates := tr.rungs
	if rates != nil && !cfg.trace {
		rates = rates[1:2]
	}
	newWindow := func(dur time.Duration, warm bool) *window {
		widx++
		w := &window{idx: widx, seed: cfg.seed, dur: dur, whole: full, warm: warm, rates: rates}
		if warm && rates != nil {
			w.rates = rates[:1]
		}
		return w
	}
	warm := warmup
	if !full {
		warm = time.Duration(cfg.seconds * float64(time.Second) / 4)
	}
	if _, err := runWindow(h, wl, newWindow(warm, true), 0); err != nil {
		return nil, err
	}

	res := &result{Env: env}
	secs := time.Duration(cfg.seconds * float64(time.Second))
	var measured *windowResult
	if !cfg.trace {
		w, err := runWindow(h, wl, newWindow(secs, false), 0)
		if err != nil {
			return nil, err
		}
		measured = w
	} else {
		plain, err := runWindow(h, wl, newWindow(secs/2, false), 0)
		if err != nil {
			return nil, err
		}
		traced, err := runWindow(h, wl, newWindow(secs/2, false), tr.sample)
		if err != nil {
			return nil, err
		}
		measured = traced
		res.Attempted, res.Failed = plain.stats.done, plain.stats.failed
		note(res, plain, wl)
		res.PerLayer = make(map[string]float64)
		layerMetrics(res.PerLayer, wl, plain, traced)
		if err := writeSpans(cfg, tr.name, traced); err != nil {
			return nil, err
		}
	}
	res.Attempted += measured.stats.done
	res.Failed += measured.stats.failed
	note(res, measured, wl)
	err := h.stop()
	if h = nil; err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := isolatedServerMetrics(res.PerLayer, wl, cfg); err != nil {
			return nil, err
		}
		reconcile(res.PerLayer)
	} else {
		for began := time.Now(); full && len(setupS) < setUps && time.Since(began) < setUpBudget; {
			again, _, took, err := setUp(wl, cfg, epoch)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, took.Seconds())
			if err := again.stop(); err != nil {
				return nil, err
			}
		}
		res.EndToEnd = make(map[string]float64)
		endToEndMetrics(res.EndToEnd, wl, measured, median(setupS))
	}
	res.Correct = res.Failed == 0 && len(res.Notes) == 0
	return res, nil
}

// note records what a window got wrong: failed operations and claims
// the workload did not meet. Either makes the result incorrect.
func note(res *result, w *windowResult, wl workload) {
	if w.stats.failed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d operations failed; first: %s", w.stats.failed, w.stats.done, w.stats.firstFailure))
	}
	for _, c := range wl.claims(w) {
		res.Notes = append(res.Notes, wl.traits().name+" does not isolate what it claims: "+c)
	}
}
