package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fs"
	apps "repro/internal/workload"
)

// window is one stretch of driving: a warm-up, a measured window or a
// traced one. Every connection drives the same window at once and the
// window ends when each has had its last response.
type window struct {
	idx   int    // ordinal in the run; mixes into the op streams' seeds
	seed  uint64 // the run's seed
	conns int    // connections driving this window
	dur   time.Duration
	start time.Time

	// maxOps, when set, bounds a connection's ops in place of dur: the
	// isolated replays and the determinism test want a fixed amount of
	// work, not a fixed time.
	maxOps int64
	// whole makes app_mix stop only at lap ends, all connections after
	// the same lap, so that every window holds the same mix of the four
	// applications whatever order the seed drew them in.
	whole bool
	gate  *lapGate
	// rates, when set, makes open_zipf an open loop offering each rate in
	// turn, for the share of dur rungShare gives it; nil drives it
	// closed. warm keeps the ops off the rungs' books.
	rates []float64
	warm  bool
}

// rng is connection conn's generator for this window.
func (w *window) rng(conn int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(w.seed ^ mix64(uint64(w.idx)<<8|uint64(conn))))))
}

// over reports whether a connection that has sent n ops should stop.
// The clock is read once in 64 ops.
func (w *window) over(n int64) bool {
	if w.maxOps > 0 {
		return n >= w.maxOps
	}
	return n%64 == 0 && time.Since(w.start) >= w.dur
}

// another is over for a workload that runs in laps, asked at a lap's
// end.
func (w *window) another(n int64) bool {
	switch {
	case w.maxOps > 0:
		return n < w.maxOps
	case w.whole:
		return w.gate.arrive(time.Since(w.start) < w.dur)
	}
	return time.Since(w.start) < w.dur
}

// lapGate is a barrier at which n parties agree whether to go on: each
// arrives with its own view and all leave with the last arrival's.
type lapGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   int
	verdict bool
}

func newLapGate(n int) *lapGate {
	g := &lapGate{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *lapGate) arrive(goOn bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waiting++
	if g.waiting == g.n {
		g.waiting = 0
		g.round++
		g.verdict = goOn
		g.cond.Broadcast()
		return goOn
	}
	for round := g.round; round == g.round; {
		g.cond.Wait()
	}
	return g.verdict
}

// workload is one of the four server workloads. setup creates and
// populates its files through the sinks it is given (one per
// connection); drive sends one window's ops down one sink. Both run
// unchanged against a connection, a bare core.Live and a hash.
type workload interface {
	traits() traits
	setup(ss []sink) error
	drive(s sink, conn int, w *window) error
	// claims checks that the window exercised what the workload exists
	// to exercise, and returns what it did not.
	claims(r *windowResult) []string
}

// traits are a workload's fixed properties.
type traits struct {
	name  string
	store storeKind
	depth int // outstanding requests per connection
	// rungs, when set, are the rates in requests per second an open loop
	// offers in turn; nil is a closed loop.
	rungs []float64
	// sample is how many requests a traced window keeps one span of.
	sample uint32
	// laps marks a workload that runs in laps, each the same work, and so
	// is measured over whole laps and not by the second.
	laps bool
}

func readOp(file int, blk int32) op {
	return op{kind: opRead, file: file, blk: blk, size: blockBytes, gen: 1, mutSeg: -1, due: -1, rung: -1}
}

func ctlOp(kind opKind) op { return op{kind: kind, due: -1, rung: -1} }

// createBalanced creates n files of blocks blocks through s, bound to
// file indexes first to first+n-1, so that every shard owns n/shards of
// them. A file's shard is a hash of its name and shows in the id the
// server returns, so it tries names in order and removes a file that
// lands on a shard which has its share. It returns the names kept.
func createBalanced(s sink, prefix string, first, n, blocks int) ([]string, error) {
	per := make([]int, s.shards())
	var names []string
	for try := 0; len(names) < n; try++ {
		if try > 64*n {
			return nil, fmt.Errorf("benchmark: %s: no balanced file set in %d names", prefix, try)
		}
		o := ctlOp(opCreate)
		o.file, o.name, o.blocks = first+len(names), fmt.Sprintf("%s/%d", prefix, try), blocks
		if err := s.do(&o); err != nil {
			return nil, err
		}
		if sh := int(s.fileID(o.file)) % len(per); per[sh] < n/len(per) {
			per[sh]++
			names = append(names, o.name)
			continue
		}
		o.kind = opRemove
		if err := s.do(&o); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// populate writes every block of files first to first+n-1 at
// generation 1.
func populate(s sink, first, n, blocks int) error {
	for f := first; f < first+n; f++ {
		for b := 0; b < blocks; b++ {
			o := op{kind: opWrite, file: f, blk: int32(b), size: blockBytes, gen: 1, due: -1, rung: -1}
			if err := s.do(&o); err != nil {
				return err
			}
		}
	}
	return nil
}

// openAll binds names to file indexes first onward on a sink that did
// not create them.
func openAll(s sink, first int, names []string) error {
	for i, name := range names {
		o := ctlOp(opOpen)
		o.file, o.name = first+i, name
		if err := s.do(&o); err != nil {
			return err
		}
	}
	return nil
}

// --- hot_read ---

// hotRead reads whole blocks uniformly from a set half the cache's
// size, spread so that no shard's share passes three quarters of its
// partition. Everything hits: framing, the shard loop and the zero-copy
// write path do the work, and the store does none.
type hotRead struct{}

const hotFiles = 8

func hotBlocksPerFile() int { return cacheBlocks / 2 / hotFiles }

func (hotRead) traits() traits {
	return traits{name: "hot_read", store: storeMem, depth: closedWindow, sample: 16}
}

func (hotRead) setup(ss []sink) error {
	names, err := createBalanced(ss[0], "hot", 0, hotFiles, hotBlocksPerFile())
	if err != nil {
		return err
	}
	if err := populate(ss[0], 0, hotFiles, hotBlocksPerFile()); err != nil {
		return err
	}
	for _, s := range ss[1:] {
		if err := openAll(s, 0, names); err != nil {
			return err
		}
	}
	return nil
}

func (hotRead) drive(s sink, conn int, w *window) error {
	rng, per := w.rng(conn), hotBlocksPerFile()
	for n := int64(0); !w.over(n); n++ {
		g := rng.Intn(hotFiles * per)
		o := readOp(g/per, int32(g%per))
		if err := s.do(&o); err != nil {
			return err
		}
	}
	return nil
}

func (hotRead) claims(r *windowResult) []string {
	var bad []string
	if hr := r.cacheHitRatio(); hr < 0.999 {
		bad = append(bad, fmt.Sprintf("cache hit ratio %.4f < 0.999", hr))
	}
	if st := r.store(); st.readCalls+st.writeCalls != 0 {
		bad = append(bad, fmt.Sprintf("%d store calls in the window, want 0", st.readCalls+st.writeCalls))
	}
	return bad
}

// --- cold_scan ---

// coldScan loops sequential scans, each connection over private files
// four times the cache's size, on a FileStore: every block is a demand
// or read-ahead fill, so the miss and eviction path, the fill workers,
// run coalescing and preadv do the work and the hit path little.
type coldScan struct{}

const coldFilesPerConn = 4

func (coldScan) traits() traits {
	return traits{name: "cold_scan", store: storeFile, depth: closedWindow, sample: 16}
}

func (coldScan) setup(ss []sink) error {
	for c, s := range ss {
		first := c * coldFilesPerConn
		if _, err := createBalanced(s, fmt.Sprintf("cold/c%d", c), first, coldFilesPerConn, cacheBlocks); err != nil {
			return err
		}
		if err := populate(s, first, coldFilesPerConn, cacheBlocks); err != nil {
			return err
		}
	}
	return nil
}

func (coldScan) drive(s sink, conn int, w *window) error {
	n := int64(0)
	for {
		for f := conn * coldFilesPerConn; f < (conn+1)*coldFilesPerConn; f++ {
			for b := 0; b < cacheBlocks; b++ {
				if w.over(n) {
					return nil
				}
				o := readOp(f, int32(b))
				if err := s.do(&o); err != nil {
					return err
				}
				n++
			}
		}
	}
}

func (coldScan) claims(r *windowResult) []string {
	var bad []string
	if st := r.store(); float64(st.readBlocks) < 0.95*float64(r.stats.done) {
		bad = append(bad, fmt.Sprintf("%d blocks read from the store for %d requests, want at least 95 %%", st.readBlocks, r.stats.done))
	}
	if r.after.io[1]-r.before.io[1] <= 0 {
		bad = append(bad, "no vectored store read in the window")
	}
	return bad
}

// --- open_zipf ---

// openZipf is the open loop: Poisson arrivals split over the
// connections, Zipf(0.99) blocks over files four times the cache's size,
// one op in ten a 1 KB write, on a MemStore behind a disk arm that takes
// openStoreLat per call (store.go, seek), the whole process on one
// processor (affinity_linux.go). Writes beside reads, misses that cost
// real time and queueing in the fill and write-behind queues: a hit-path
// gain bought with a fill- or write-path cost shows here.
type openZipf struct {
	// closed drives the same op mix as a closed loop at the closed-loop
	// window: how the profile's capacity, and from it the rung rates,
	// was measured (-calibrate).
	closed bool
	cdf    []float64
	// gens[conn][g] is the generation conn last wrote to global block g.
	// A connection writes only blocks whose index has its own parity, so
	// it knows exactly what a read of one of them must return.
	gens [][]uint32
}

const (
	zipfFiles      = 8
	zipfTheta      = 0.99
	zipfWriteShare = 0.1
)

// rungShare is each rung's share of an open-loop window that climbs all
// three (the traced pass's; the end-to-end pass offers the middle rate
// alone). The middle rate is the one the end-to-end metrics are read at,
// so here too it gets most of the time.
var rungShare = [3]float64{0.2, 0.6, 0.2}

// rungAt is the rung in force at fraction t of a window of n rungs, or
// n once the window is over. One rung alone (a warm-up) has it all.
func rungAt(t float64, n int) int {
	if n == 1 {
		if t < 1 {
			return 0
		}
		return 1
	}
	end := 0.0
	for r, share := range rungShare {
		if end += share; t < end {
			return r
		}
	}
	return n
}

func zipfBlocksPerFile() int { return 4 * cacheBlocks / zipfFiles }

func (z *openZipf) traits() traits {
	if z.closed {
		return traits{name: "open_zipf", store: storeMemSlow, depth: closedWindow, sample: 1}
	}
	return traits{name: "open_zipf", store: storeMemSlow, depth: openWindow, rungs: openRungs, sample: 1}
}

func (z *openZipf) setup(ss []sink) error {
	per := zipfBlocksPerFile()
	names, err := createBalanced(ss[0], "zipf", 0, zipfFiles, per)
	if err != nil {
		return err
	}
	if err := populate(ss[0], 0, zipfFiles, per); err != nil {
		return err
	}
	for _, s := range ss[1:] {
		if err := openAll(s, 0, names); err != nil {
			return err
		}
	}
	total := zipfFiles * per
	z.cdf = make([]float64, total)
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), zipfTheta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.gens = make([][]uint32, len(ss))
	for c := range z.gens {
		z.gens[c] = make([]uint32, total)
		for g := range z.gens[c] {
			z.gens[c][g] = 1
		}
	}
	return nil
}

func (z *openZipf) drive(s sink, conn int, w *window) error {
	rng, per := w.rng(conn), zipfBlocksPerFile()
	// Which block has which popularity rank is drawn from the seed alone,
	// so every connection and window agrees on the hot set.
	perm := rand.New(rand.NewSource(int64(mix64(w.seed)))).Perm(len(z.cdf))
	gens := z.gens[conn]
	due := 0.0 // ns from the window's start
	for n := int64(0); ; n++ {
		o := op{due: -1, rung: -1}
		if w.rates == nil {
			if w.over(n) {
				return nil
			}
		} else {
			rung := rungAt(due/float64(w.dur), len(w.rates))
			if rung == len(w.rates) {
				return nil
			}
			o.due = int64(due)
			if !w.warm {
				o.rung = rung
			}
			due += rng.ExpFloat64() / (w.rates[rung] / float64(w.conns)) * 1e9
		}
		g := perm[sort.SearchFloat64s(z.cdf, rng.Float64())]
		if rng.Float64() < zipfWriteShare {
			g = g&^1 | conn&1
			gens[g]++
			o.kind, o.gen = opWrite, gens[g]
			o.off, o.size = g%per%segsPerBlock*segBytes, segBytes
		} else {
			o.kind, o.size, o.mutSeg = opRead, blockBytes, g%per%segsPerBlock
			if g&1 == conn&1 {
				o.gen = gens[g]
			}
		}
		o.file, o.blk = g/per, int32(g%per)
		if err := s.do(&o); err != nil {
			return err
		}
	}
}

func (*openZipf) claims(r *windowResult) []string {
	var bad []string
	if r.stats.misses == 0 {
		bad = append(bad, "no miss in the window")
	}
	if r.store().writeCalls == 0 {
		bad = append(bad, "no write reached the store in the window")
	}
	return bad
}

// --- app_mix ---

// appMix replays the paper's own traffic: laps of the smart-mode
// transcripts of cs2, ldk, gli and pjn, recorded from the simulator at
// set-up, each connection under its own names. Accesses are pipelined
// and every fbehavior call, create and remove is a barrier, as it is
// for the application. Manager consultation, overrules, placeholders,
// temporary priorities and ldk's writes: the cache and kernel layers
// cold_scan uses, under controlled random access instead of scans.
//
// sort is left out: the store has no delete, so its 6.5k temporary-block
// writes a lap would grow the store without bound.
type appMix struct {
	recs [][]expt.ReplayEvent
}

var mixApps = []string{"cs2", "ldk", "gli", "pjn"}

func (*appMix) traits() traits {
	return traits{name: "app_mix", store: storeMem, depth: closedWindow, sample: 16, laps: true}
}

func (m *appMix) setup([]sink) error {
	m.recs = m.recs[:0]
	for _, app := range mixApps {
		rec := expt.Record(expt.RunSpec{
			Apps:    []expt.AppSpec{{Name: app, Make: expt.Registry[app], Mode: apps.Smart}},
			CacheMB: cacheMB,
			Alloc:   pinnedKernel().Alloc,
			// Read-ahead I/O is untraced, so the transcript must not depend on it.
			Opts: expt.Options{ReadAheadOff: true},
		})
		m.recs = append(m.recs, rec.Events)
	}
	return nil
}

func (m *appMix) drive(s sink, conn int, w *window) error {
	rng := w.rng(conn)
	n, nextFile := int64(0), 0
	for lap := 0; ; lap++ {
		for _, a := range rng.Perm(len(m.recs)) {
			prefix := fmt.Sprintf("c%d/w%d/l%d/", conn, w.idx, lap)
			cut, err := replay(s, m.recs[a], prefix, &n, &nextFile, w)
			if err != nil || cut {
				return err
			}
		}
		if !w.another(n) {
			return nil
		}
	}
}

// replay sends one application's transcript and then removes the files
// it left and withdraws its cache control, so the next application
// starts as the recorded one did. Unless the window runs whole laps, it
// stops early, still cleaning up, once the window is over, and reports
// that it was cut.
func replay(s sink, events []expt.ReplayEvent, prefix string, n *int64, nextFile *int, w *window) (cut bool, err error) {
	type liveFile struct {
		idx  int
		name string
	}
	files := make(map[fs.FileID]liveFile)
	controlled := false
	for i := range events {
		if !w.whole && w.over(*n) {
			cut = true
			break
		}
		var o op
		if ev := &events[i]; !ev.IsCtl {
			a := &ev.Access
			o = op{kind: opRead, file: files[a.File].idx, blk: a.Block, off: a.Off, size: a.Size, loose: true, due: -1, rung: -1}
			if a.Write {
				o.kind = opWrite
			}
		} else {
			ct := &ev.Ctl
			switch ct.Op {
			case core.CtlCreateFile:
				o = ctlOp(opCreate)
				o.file, o.name, o.disk, o.blocks = *nextFile, prefix+ct.FileName, ct.Disk, ct.Size
				files[ct.File] = liveFile{o.file, o.name}
				*nextFile++
			case core.CtlRemoveFile:
				o = ctlOp(opRemove)
				o.file, o.name = files[ct.File].idx, files[ct.File].name
				delete(files, ct.File)
			case core.CtlControl:
				o = ctlOp(opControl)
				o.enable = ct.Enable
				controlled = ct.Enable
			case core.CtlSetPriority:
				o = ctlOp(opSetPriority)
				o.file, o.prio = files[ct.File].idx, ct.Prio
			case core.CtlSetPolicy:
				o = ctlOp(opSetPolicy)
				o.prio, o.policy = ct.Prio, uint8(ct.Policy)
			case core.CtlSetTempPri:
				o = ctlOp(opSetTempPri)
				o.file, o.start, o.end, o.prio = files[ct.File].idx, ct.Start, ct.End, ct.Prio
			default:
				return false, fmt.Errorf("benchmark: transcript holds control op %d, which the replay does not know", ct.Op)
			}
		}
		if err := s.do(&o); err != nil {
			return false, err
		}
		*n++
	}
	left := make([]liveFile, 0, len(files))
	for _, f := range files {
		left = append(left, f)
	}
	sort.Slice(left, func(i, j int) bool { return left[i].idx < left[j].idx })
	for _, f := range left {
		o := ctlOp(opRemove)
		o.file, o.name = f.idx, f.name
		if err := s.do(&o); err != nil {
			return false, err
		}
		*n++
	}
	if controlled {
		o := ctlOp(opControl)
		if err := s.do(&o); err != nil {
			return false, err
		}
		*n++
	}
	return cut, nil
}

func (*appMix) claims(r *windowResult) []string {
	var bad []string
	k := r.kernel().Cache
	if k.Consults == 0 {
		bad = append(bad, "no manager was consulted in the window")
	}
	if k.Overrules == 0 {
		bad = append(bad, "no manager overruled the kernel in the window")
	}
	return bad
}
