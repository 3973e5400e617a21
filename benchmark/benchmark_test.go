package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/expt"
	"repro/internal/server"
)

func TestPercentilePickerWantsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int64
		p    float64
		want bool
	}{{19, 0.5, false}, {20, 0.5, true}, {99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {9999, 0.999, false}, {10000, 0.999, true}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	var h hist
	for i := 0; i < 999; i++ {
		h.add(int64(1000 * (i + 1)))
	}
	if got := h.quantileIf(0.99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0: fewer than ten samples lie beyond it", got)
	}
	h.add(1e6)
	if got := h.quantileIf(0.99); got == 0 {
		t.Error("p99 of 1000 samples unsupported, want a value")
	}
}

func TestHistogramErrorBound(t *testing.T) {
	const bound = 1.0 / (1 << histSub)
	rng := rand.New(rand.NewSource(1))
	var h hist
	var exact []float64
	for i := 0; i < 200000; i++ {
		v := int64(math.Exp(rng.Float64() * math.Log(1e10))) // log-uniform, 1 ns to 10 s
		lo, width := bucketBounds(bucketOf(v))
		if v < lo || v >= lo+width || float64(width) > math.Max(1, bound*float64(lo)) {
			t.Fatalf("value %d filed in bucket [%d, %d)", v, lo, lo+width)
		}
		h.add(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(p*float64(len(exact)))-1]
		if got := h.quantile(p); math.Abs(got-want) > bound*want+1 {
			t.Errorf("quantile(%v) = %v, exact %v: off by more than %.2g of it", p, got, want, bound)
		}
	}
}

func TestPayloadVerification(t *testing.T) {
	block := make([]byte, blockBytes)
	fillBlock(block, 3, 17, 1)
	if !checkBlock(block, 3, 17, -1, 1, true) {
		t.Fatal("a block as written fails verification")
	}
	if checkBlock(block, 3, 18, -1, 1, false) || checkBlock(block, 4, 17, -1, 1, false) {
		t.Error("a block verifies as another block")
	}
	fillSeg(block[5*segBytes:], 3, 17, 5, 9) // a 1 KB write at generation 9
	if !checkBlock(block, 3, 17, 5, 9, true) || !checkBlock(block, 3, 17, 5, 0, false) {
		t.Error("a rewritten segment fails verification at its own generation")
	}
	if checkBlock(block, 3, 17, 5, 8, false) || checkBlock(block, 3, 17, -1, 1, true) {
		t.Error("a rewritten segment verifies at a generation it is not at")
	}
	block[blockBytes-1] ^= 1
	if checkBlock(block, 3, 17, 5, 9, false) {
		t.Error("a corrupt tail word verifies")
	}
	block[blockBytes-1] ^= 1
	block[4000] ^= 1
	if !checkBlock(block, 3, 17, 5, 9, false) || checkBlock(block, 3, 17, 5, 9, true) {
		t.Error("a corrupt middle byte must pass the cheap check and fail the full one")
	}

	part := make([]byte, 300)
	fillRange(part, 2, 5, 1000)
	if !checkRange(part, 2, 5, 1000, true) || !checkRange(make([]byte, 300), 2, 5, 1000, true) {
		t.Error("generation-1 bytes or zeros fail the loose check")
	}
	if checkRange(part, 2, 6, 1000, false) {
		t.Error("a range verifies as another block's")
	}
}

// stallingServer accepts one connection, reads its first request, waits
// out stall without reading or answering, and from then on answers every
// request at once with a bare OK.
func stallingServer(t *testing.T, stall time.Duration) net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br, body := bufio.NewReader(nc), make([]byte, server.MaxFrame)
		for first := true; ; first = false {
			id, _, n, err := server.ReadFrameHeader(br)
			if err == nil {
				_, err = io.ReadFull(br, body[:n])
			}
			if err != nil {
				return
			}
			if first {
				time.Sleep(stall)
			}
			if server.WriteFrame(nc, id, server.StatusOK, []byte{0}) != nil {
				return
			}
		}
	}()
	return ln
}

func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	const stall, depth, ops = 80 * time.Millisecond, 4, 60
	ln := stallingServer(t, stall)
	defer ln.Close()
	epoch := time.Now()
	c, err := dialConn(0, ln.Addr().String(), depth, epoch)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	st := new(connStats)
	c.win.Store(st)
	c.winStart = c.now()
	for i := 0; i < ops; i++ { // one op a millisecond
		o := op{kind: opWrite, size: segBytes, gen: 2, due: int64(i) * int64(time.Millisecond), rung: 0}
		if err := c.do(&o); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.quiesce(); err != nil {
		t.Fatal(err)
	}
	r := &st.rungs[0]
	if r.sent != ops || r.done != ops || st.failed != 0 {
		t.Fatalf("sent %d, done %d, failed %d of %d ops", r.sent, r.done, st.failed, ops)
	}
	// The window of 4 filled while the server stalled, so the generator
	// ran late: it must say so, and it must charge the wait to the
	// requests by timing them from when they were due, not when they left.
	if late := time.Duration(r.late.quantile(0.9)); late < stall/4 {
		t.Errorf("generator lateness p90 = %v with the sink stalled for %v", late, stall)
	}
	fromDue, fromSend := time.Duration(st.lat().quantile(0.5)), time.Duration(st.missRTT.quantile(0.5))
	if fromDue < stall/4 || fromSend > fromDue/2 {
		t.Errorf("median latency %v from the intended send, %v from the actual: the stall of %v must show in the first only", fromDue, fromSend, stall)
	}
	if r.backlogMax != depth {
		t.Errorf("deepest backlog %d, want the whole window of %d", r.backlogMax, depth)
	}
}

// hashSink folds every field of every op into one hash: two op streams
// hash alike only if they are the same requests in the same order with
// the same intended send times.
type hashSink struct {
	h   hash.Hash64
	ops int64
}

func newHashSink() *hashSink { return &hashSink{h: fnv.New64a()} }

func (s *hashSink) fileID(file int) uint32 { return uint32(file) }
func (s *hashSink) shards() int            { return 1 }

func (s *hashSink) do(o *op) error {
	s.ops++
	var b [64]byte
	le := binary.LittleEndian
	b[0] = byte(o.kind)
	b[1] = byte(o.mutSeg)
	b[2] = o.policy
	if o.loose {
		b[3] |= 1
	}
	if o.enable {
		b[3] |= 2
	}
	le.PutUint32(b[4:], uint32(o.file))
	le.PutUint32(b[8:], uint32(o.blk))
	le.PutUint32(b[12:], uint32(o.off))
	le.PutUint32(b[16:], uint32(o.size))
	le.PutUint32(b[20:], o.gen)
	le.PutUint32(b[24:], uint32(o.blocks))
	le.PutUint32(b[28:], uint32(o.disk))
	le.PutUint32(b[32:], uint32(o.prio))
	le.PutUint32(b[36:], uint32(o.start))
	le.PutUint32(b[40:], uint32(o.end))
	le.PutUint64(b[44:], uint64(o.due))
	le.PutUint32(b[52:], uint32(o.rung))
	s.h.Write(b[:])
	s.h.Write([]byte(o.name))
	return nil
}

// opStreamHash is the hash of wl's set-up and one window's ops.
func opStreamHash(t *testing.T, wl workload, seed uint64) uint64 {
	s := newHashSink()
	if err := wl.setup([]sink{s, newHashSink()}); err != nil {
		t.Fatal(err)
	}
	w := &window{idx: 1, seed: seed, conns: 2, maxOps: 5000, gate: newLapGate(1), rates: wl.traits().rungs, dur: time.Second}
	if w.rates != nil {
		w.maxOps = 0 // an open loop's stream ends with its schedule
	}
	if err := wl.drive(s, 1, w); err != nil {
		t.Fatal(err)
	}
	if s.ops < 1000 {
		t.Fatalf("%s: only %d ops generated", wl.traits().name, s.ops)
	}
	return s.h.Sum64()
}

func TestSameSeedSameOpStream(t *testing.T) {
	mix := &appMix{} // records its transcripts once for all three streams
	for _, wl := range []workload{hotRead{}, coldScan{}, mix, &openZipf{}} {
		a, b, c := opStreamHash(t, wl, 7), opStreamHash(t, wl, 7), opStreamHash(t, wl, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different op streams", wl.traits().name)
		}
		// cold_scan is a fixed sequential scan and takes nothing from the seed.
		if _, fixed := wl.(coldScan); a == c && !fixed {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", wl.traits().name)
		}
	}
}

func TestTimedStoreKeepsVectoring(t *testing.T) {
	fst, err := disk.NewFileStore(filepath.Join(t.TempDir(), "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	ts := newTimedStore(fst, time.Now())
	defer ts.Close()
	// The server vectors fills only over a store with the batch methods.
	var st disk.Store = ts
	if _, ok := st.(disk.BatchStore); !ok {
		t.Fatal("the wrapper hides the store's batch methods")
	}
	specs, bufs := make([]disk.BlockSpan, 8), make([][]byte, 8)
	for i := range specs {
		specs[i], bufs[i] = disk.BlockSpan{File: 1, Blk: int32(i)}, make([]byte, blockBytes)
		fillBlock(bufs[i], 1, int32(i), 1)
	}
	ts.trace(true)
	for _, err := range disk.WriteBatch(st, specs, bufs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range disk.ReadBatch(st, specs, bufs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, vectorReads, _, vectorWrites := fst.IOCounts(); vectorReads != 1 || vectorWrites != 1 {
		t.Errorf("%d vectored reads and %d vectored writes reached the file, want 1 and 1", vectorReads, vectorWrites)
	}
	if c := ts.snapshot(); c.readCalls != 1 || c.readBlocks != 8 || c.writeCalls != 1 || c.writeBlocks != 8 || c.errors != 0 {
		t.Errorf("wrapper counted %+v, want one call of 8 blocks each way", c)
	}
	if spans, _ := ts.trace(false); len(spans) != 2 || len(spans[1].Blocks) != 8 || spans[1].Write || spans[1].End < spans[1].Start {
		t.Errorf("spans %+v, want a write then a read of 8 blocks", spans)
	}
	for i := range bufs {
		if !checkBlock(bufs[i], 1, int32(i), -1, 1, true) {
			t.Errorf("block %d read back wrong through the wrapper", i)
		}
	}
}

func TestDiskArmServesOneCallAtATime(t *testing.T) {
	ts := newTimedStore(disk.NewMemStore(), time.Now())
	defer ts.Close()
	buf := make([]byte, blockBytes)
	if err := ts.WriteBlock(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	const lat = 2 * time.Millisecond
	ts.setLatency(lat)
	// Five calls at once queue for the one arm: the last is served five
	// latencies after they came, however promptly each woke up.
	start := time.Now()
	done := make(chan time.Duration, 5)
	for i := 0; i < 5; i++ {
		go func() {
			if err := ts.ReadBlock(1, 0, make([]byte, blockBytes)); err != nil {
				t.Error(err)
			}
			done <- time.Since(start)
		}()
	}
	var last time.Duration
	for i := 0; i < 5; i++ {
		last = max(last, <-done)
	}
	if last < 5*lat || last > 5*lat+50*time.Millisecond {
		t.Errorf("five concurrent calls took %v, want %v and a wake-up", last, 5*lat)
	}
	// A batch pays in full for its first block and a tenth for each more.
	specs, bufs := make([]disk.BlockSpan, 11), make([][]byte, 11)
	for i := range specs {
		specs[i], bufs[i] = disk.BlockSpan{File: 1, Blk: 0}, buf
	}
	start = time.Now()
	ts.ReadBlocks(specs, bufs)
	if took := time.Since(start); took < 2*lat || took > 2*lat+50*time.Millisecond {
		t.Errorf("an 11-block call took %v, want %v and a wake-up", took, 2*lat)
	}
	ts.setLatency(0)
	start = time.Now()
	ts.ReadBlock(1, 0, buf)
	if took := time.Since(start); took > lat {
		t.Errorf("a call on a store made fast again took %v", took)
	}
}

func TestServerWorkloadsSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 3, seconds: 0.3, root: root, outDir: t.TempDir()}
	for _, name := range workloadNames[1:] {
		start := time.Now()
		res, err := runServer(newWorkload(name), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A window this short need not meet the claims a full one must
		// (Correct); it must not fail an operation.
		if res.Failed != 0 || res.Attempted < 100 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Notes)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", name, d.Name, v)
			}
		}
		t.Logf("%s: %d operations in %v", name, res.Attempted, time.Since(start).Round(time.Millisecond))
	}
}

func TestGoldenTables(t *testing.T) {
	golden, err := parseGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range desIDs {
		if golden[id] == "" {
			t.Errorf("no golden hash for %s", id)
		}
	}
	for _, id := range []string{"vm", "table3"} { // the quick ones
		var out bytes.Buffer
		for _, tb := range expt.Experiments[id](expt.NewRunner(1)) {
			tb.Render(&out)
		}
		if sum := sha256.Sum256(out.Bytes()); hex.EncodeToString(sum[:]) != golden[id] {
			t.Errorf("%s hashes to %x, golden says %s", id, sum, golden[id])
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go:
// the file is what a driver reads, the tables are what the program
// prints.
func TestBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program says %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, the program has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d is %q (why: %d chars), want %q with a reason of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, the program has %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d is %+v, the program says %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, valid bool, reqPerS, events float64) string {
		rep := report{
			Env:   environment{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", Commit: "c", Seconds: runSeconds},
			Valid: valid,
			Workloads: map[string]*result{"hot_read": {
				Correct:  true,
				EndToEnd: map[string]float64{"req_per_s": reqPerS, "lat_p95_us": 80},
				PerLayer: map[string]float64{"sim.events_scheduled": events},
			}},
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", true, 300000, 5)
	for _, c := range []struct {
		name string
		path string
		want int
	}{
		{"within the bound", write("a.json", true, 280000, 5), 0},
		{"throughput down by a third", write("b.json", true, 200000, 5), 1},
		{"an exact count moved", write("c.json", true, 300000, 6), 1},
		{"a shortened run", write("d.json", false, 300000, 5), 2},
	} {
		if got := compare(base, c.path); got != c.want {
			t.Errorf("%s: compare returned %d, want %d", c.name, got, c.want)
		}
	}
}
