package expt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/workload"
)

func TestRunDeterministic(t *testing.T) {
	spec := RunSpec{
		Apps:    mixSpec([]string{"din"}, workload.Smart),
		CacheMB: 6.4,
		Alloc:   cache.LRUSP,
	}
	a, b := Run(spec), Run(spec)
	if a.TotalIOs != b.TotalIOs || a.TotalElapsed != b.TotalElapsed {
		t.Errorf("runs differ: %d/%v vs %d/%v", a.TotalIOs, a.TotalElapsed, b.TotalIOs, b.TotalElapsed)
	}
}

func TestRunSeedChangesOnlyTiming(t *testing.T) {
	mk := func(seed uint64) RunResult {
		return Run(RunSpec{
			Apps:    mixSpec([]string{"cs1"}, workload.Smart),
			CacheMB: 6.4, Alloc: cache.LRUSP, Seed: seed,
		})
	}
	a, b := mk(1), mk(99)
	if a.TotalIOs != b.TotalIOs {
		t.Errorf("seed changed I/O count: %d vs %d", a.TotalIOs, b.TotalIOs)
	}
	if a.TotalElapsed == b.TotalElapsed {
		t.Error("different seeds gave identical elapsed times (rotational model inert?)")
	}
}

func TestRunPerAppAccounting(t *testing.T) {
	res := Run(RunSpec{
		Apps:    mixSpec([]string{"din", "ldk"}, workload.Oblivious),
		CacheMB: 6.4, Alloc: cache.GlobalLRU,
	})
	if len(res.PerApp) != 2 {
		t.Fatalf("PerApp has %d entries", len(res.PerApp))
	}
	if res.PerApp[0].Name != "din" || res.PerApp[1].Name != "ldk" {
		t.Errorf("names = %s, %s", res.PerApp[0].Name, res.PerApp[1].Name)
	}
	var sum int64
	for _, a := range res.PerApp {
		if a.BlockIOs <= 0 || a.Elapsed <= 0 {
			t.Errorf("%s: empty result", a.Name)
		}
		sum += a.BlockIOs
	}
	if sum != res.TotalIOs {
		t.Errorf("TotalIOs %d != sum %d", res.TotalIOs, sum)
	}
	for _, a := range res.PerApp {
		if a.Elapsed > res.TotalElapsed {
			t.Errorf("%s elapsed %v exceeds total %v", a.Name, a.Elapsed, res.TotalElapsed)
		}
	}
}

func TestMixSpecUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown workload did not panic")
		}
	}()
	mixSpec([]string{"nope"}, workload.Smart)
}

func TestFig4SingleSize(t *testing.T) {
	tables := Fig4(nil, []float64{6.4})
	if len(tables) != 2 {
		t.Fatalf("Fig4 returned %d tables", len(tables))
	}
	elapsed, ios := tables[0], tables[1]
	if len(elapsed.Rows) != len(singleApps) || len(ios.Rows) != len(singleApps) {
		t.Fatalf("row counts %d, %d; want %d", len(elapsed.Rows), len(ios.Rows), len(singleApps))
	}
	// Every app must improve (or at worst tie) on block I/Os at 6.4 MB,
	// as in the paper.
	for _, row := range ios.Rows {
		ratio := parseF(t, row[4])
		if ratio > 1.01 {
			t.Errorf("%s: smart I/O ratio %v > 1", row[0], ratio)
		}
		if ratio < 0.1 {
			t.Errorf("%s: ratio %v implausibly low", row[0], ratio)
		}
	}
}

func TestFig5SingleMixShape(t *testing.T) {
	tables := Fig5(nil, []float64{16})
	rows := tables[0].Rows
	if len(rows) != len(Fig5Mixes) {
		t.Fatalf("fig5 rows = %d, want %d", len(rows), len(Fig5Mixes))
	}
	// At 16 MB, every mix must cut total I/Os meaningfully.
	for _, row := range rows {
		if r := parseF(t, row[7]); r > 0.95 {
			t.Errorf("mix %s: 16MB I/O ratio %v, want < 0.95", row[0], r)
		}
	}
}

func TestFig6SwappingMatters(t *testing.T) {
	tables := Fig6(nil, []float64{6.4})
	rows := tables[0].Rows
	if len(rows) != len(Fig6Mixes) {
		t.Fatalf("fig6 rows = %d", len(rows))
	}
	// At the paper's default cache size ALLOC-LRU must do more I/O than
	// LRU-SP on every mix.
	for _, row := range rows {
		if r := parseF(t, row[7]); r < 1.0 {
			t.Errorf("mix %s: alloc-lru I/O ratio %v < 1 at 6.4MB", row[0], r)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1(nil)[0].Rows
	if len(rows) != 12 {
		t.Fatalf("table1 rows = %d", len(rows))
	}
	byKey := map[string]int64{}
	for _, row := range rows {
		byKey[row[0]+"/"+row[1]] = parseI(t, row[4])
	}
	for _, n := range []string{"490", "500"} {
		obl, unprot, prot := byKey["Oblivious/"+n], byKey["Unprotected/"+n], byKey["Protected/"+n]
		if unprot <= obl {
			t.Errorf("Read%s: unprotected (%d) not worse than oblivious (%d)", n, unprot, obl)
		}
		if prot >= unprot {
			t.Errorf("Read%s: protected (%d) not better than unprotected (%d)", n, prot, unprot)
		}
		// The paper's headline: placeholders pull the probe back to
		// (or below) the oblivious level.
		if float64(prot) > float64(obl)*1.1 {
			t.Errorf("Read%s: protected (%d) far above oblivious (%d)", n, prot, obl)
		}
	}
}

func TestTable2FoolishHurts(t *testing.T) {
	rows := Table2(nil)[0].Rows
	if len(rows) != 8 {
		t.Fatalf("table2 rows = %d", len(rows))
	}
	// Rows 0-3 oblivious, 4-7 foolish, same partner order: the foolish
	// Read300 must slow every partner.
	for i := 0; i < 4; i++ {
		obl := parseF(t, rows[i][2])
		foolish := parseF(t, rows[i+4][2])
		if foolish <= obl {
			t.Errorf("%s: foolish partner elapsed %v not worse than oblivious %v",
				rows[i][0], foolish, obl)
		}
	}
}

func TestTable3SmartDoesNotHurt(t *testing.T) {
	rows := Table3(nil)[0].Rows
	for _, row := range rows {
		obl, smart := parseF(t, row[1]), parseF(t, row[3])
		// Smart partners must not slow Read300 by more than a sliver
		// (the paper's criterion; on one disk they generally help).
		if smart > obl*1.1 {
			t.Errorf("%s: Read300 %vs with smart partner vs %vs oblivious", row[0], smart, obl)
		}
	}
}

func TestTable4TwoDisksCalm(t *testing.T) {
	rows := Table4(nil)[0].Rows
	for _, row := range rows {
		obl, smart := parseF(t, row[1]), parseF(t, row[3])
		if smart > obl*1.1 {
			t.Errorf("%s: two-disk Read300 %vs with smart partner vs %vs", row[0], smart, obl)
		}
		// With its own disk, Read300 must be much faster than the
		// one-disk runs of Table 3 (paper: ~20s vs 60-88s).
		if obl > 60 {
			t.Errorf("%s: two-disk Read300 took %vs, contention not removed", row[0], obl)
		}
	}
}

var ablationOnce []Table

func ablationTables(t *testing.T) []Table {
	t.Helper()
	if ablationOnce == nil {
		ablationOnce = Ablation(nil)
	}
	return ablationOnce
}

func TestAblationRevocation(t *testing.T) {
	tables := ablationTables(t)
	if len(tables) != 5 {
		t.Fatalf("ablation returned %d tables", len(tables))
	}
	rev := tables[0]
	last := rev.Rows[len(rev.Rows)-1]
	if last[4] != "1" {
		t.Errorf("revocation row reports %s revocations, want 1", last[4])
	}
	// With revocation, the foolish process's self-damage shrinks vs
	// plain LRU-SP (row before it).
	plain := parseI(t, rev.Rows[3][3])
	revoked := parseI(t, last[3])
	if revoked >= plain {
		t.Errorf("revocation did not reduce foolish I/Os: %d vs %d", revoked, plain)
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID:     "t",
		Title:  "Test table",
		Note:   strings.Repeat("word ", 40),
		Header: []string{"name", "value"},
		Rows:   [][]string{{"alpha", "1"}, {"b", "22"}},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== t: Test table ==", "alpha", "22", "name", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The note must be wrapped, not one huge line.
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 100 {
			t.Errorf("overlong line: %q", line)
		}
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	for _, id := range Order {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("Order lists %q but Experiments lacks it", id)
		}
	}
	// Experiments may carry entries deliberately kept out of the `-run
	// all` sweep (the policy tournament); each must still be reachable
	// by name.
	offOrder := map[string]bool{"tournament": true}
	inOrder := make(map[string]bool, len(Order))
	for _, id := range Order {
		inOrder[id] = true
	}
	for id := range Experiments {
		if !inOrder[id] && !offOrder[id] {
			t.Errorf("Experiments has %q, absent from both Order and the off-Order list", id)
		}
	}
}

func TestSizeIdx(t *testing.T) {
	if sizeIdx(6.4) != 0 || sizeIdx(16) != 3 || sizeIdx(7) != -1 {
		t.Error("sizeIdx wrong")
	}
}

func TestPaperDataSane(t *testing.T) {
	for app, p := range PaperSingles {
		for i := range Sizes {
			if p.IOsSP[i] > p.IOsOrig[i]+p.IOsOrig[i]/100 {
				t.Errorf("%s: paper says smart did more I/O at %v MB?", app, Sizes[i])
			}
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func parseI(t *testing.T, s string) int64 {
	t.Helper()
	var v int64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("bad int %q: %v", s, err)
	}
	return v
}

func TestRunRepeatedVariance(t *testing.T) {
	st := RunRepeated(nil, RunSpec{
		Apps:    mixSpec([]string{"cs1"}, workload.Smart),
		CacheMB: 6.4, Alloc: cache.LRUSP,
	}, 5)
	if st.Repeats != 5 || st.MeanElapsed <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The paper reports variances under 2% with few exceptions under 5%;
	// our only stochastic input is rotational latency, so we must be at
	// least as tight.
	if st.VarianceFrac > 0.05 {
		t.Errorf("variance %.1f%% exceeds the paper's bound", 100*st.VarianceFrac)
	}
	if st.TotalIOs <= 0 {
		t.Error("no I/Os")
	}
}

func TestPoliciesTable(t *testing.T) {
	tables := Policies(nil, []float64{6.4})
	rows := tables[0].Rows
	if len(rows) != len(singleApps) {
		t.Fatalf("policies rows = %d", len(rows))
	}
	for _, row := range rows {
		lru, mru := parseI(t, row[4]), parseI(t, row[5])
		lru2, opt := parseI(t, row[6]), parseI(t, row[7])
		unique := parseI(t, row[3])
		if opt > lru || opt > mru || opt > lru2 {
			t.Errorf("%s: OPT (%d) not optimal vs LRU %d / MRU %d / LRU-2 %d",
				row[0], opt, lru, mru, lru2)
		}
		if opt < unique {
			t.Errorf("%s: OPT misses %d below compulsory %d", row[0], opt, unique)
		}
	}
	// The cyclic apps must show MRU at (or essentially at) the optimum.
	for _, row := range rows {
		if row[0] == "din" || row[0] == "cs1" {
			mru, opt := parseI(t, row[5]), parseI(t, row[7])
			if mru != opt {
				t.Errorf("%s: MRU misses %d != OPT %d on a pure cycle", row[0], mru, opt)
			}
		}
		// LRU-2's scan resistance: never catastrophically worse than LRU
		// on these streams, and better on the hot/cold join.
		if row[0] == "pjn" {
			lru, lru2 := parseI(t, row[4]), parseI(t, row[6])
			if lru2 >= lru {
				t.Errorf("pjn: LRU-2 (%d) not better than LRU (%d) on hot/cold", lru2, lru)
			}
		}
	}
}

func TestVMTable(t *testing.T) {
	tables := VM(nil)
	rows := tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("vm rows = %d", len(rows))
	}
	// Smart manager beats the plain clock.
	if plain, smart := parseI(t, rows[0][2]), parseI(t, rows[1][2]); smart >= plain {
		t.Errorf("smart VM manager (%d faults) not better than clock (%d)", smart, plain)
	}
	// Placeholders protect the neighbour (faults B column).
	if without, with := parseI(t, rows[2][3]), parseI(t, rows[3][3]); with*2 > without {
		t.Errorf("VM placeholders ineffective: %d vs %d", with, without)
	}
}

func TestUpcallOverheadBand(t *testing.T) {
	tables := ablationTables(t)
	uc := tables[4]
	for i := 1; i < len(uc.Rows); i += 2 {
		var pct float64
		if _, err := fmt.Sscanf(uc.Rows[i][4], "+%f%%", &pct); err != nil {
			t.Fatalf("bad overhead cell %q", uc.Rows[i][4])
		}
		// The paper's related work reports up to 10%; our 1 ms-per-
		// consultation model must land in a positive single-digit band.
		if pct <= 0 || pct > 12 {
			t.Errorf("%s: upcall overhead %.1f%% outside (0, 12]", uc.Rows[i][0], pct)
		}
	}
}

func TestVarianceTableBounds(t *testing.T) {
	tables := ablationTables(t)
	vr := tables[2]
	up := tables[3]
	// Spread sync must cut the peak queue under either scheduler.
	if b, s := parseI(t, up.Rows[0][4]), parseI(t, up.Rows[1][4]); s >= b {
		t.Errorf("fifo: spread sync max queue %d not below burst's %d", s, b)
	}
	if b, s := parseI(t, up.Rows[2][4]), parseI(t, up.Rows[3][4]); s >= b {
		t.Errorf("c-look: spread sync max queue %d not below burst's %d", s, b)
	}
	// The elevator must beat FIFO for the latency probe.
	if fifo, clook := parseF(t, up.Rows[0][2]), parseF(t, up.Rows[2][2]); clook >= fifo {
		t.Errorf("c-look probe %vs not below fifo's %vs", clook, fifo)
	}
	for _, row := range vr.Rows {
		var pct float64
		if _, err := fmt.Sscanf(row[3], "%f%%", &pct); err != nil {
			t.Fatalf("bad deviation cell %q", row[3])
		}
		if pct > 2.0 {
			t.Errorf("%s/%s: deviation %.2f%% exceeds the paper's 2%% bound", row[0], row[1], pct)
		}
	}
}

func TestChartRendering(t *testing.T) {
	c := Chart{
		ID:    "t",
		Title: "test",
		Rows: []ChartRow{
			{Label: "a", Value: 0.5},
			{Label: "bb", Value: 1.0},
			{Label: "ccc", Value: 1.5},
		},
	}
	var buf bytes.Buffer
	c.Render(&buf)
	out := buf.String()
	for _, want := range []string{"-- t: test --", "0.50", "1.50", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("chart has %d lines, want 4", len(lines))
	}
	// The longer bar must have more fill.
	if strings.Count(lines[1], "#") >= strings.Count(lines[3], "#") {
		t.Error("bars not proportional")
	}
}

func TestChartFromTable(t *testing.T) {
	tbl := Table{
		Rows: [][]string{
			{"app", "6.4", "x", "y", "0.50"},
			{"app", "8", "x", "y", "not-a-number"},
		},
	}
	c := ChartFromTable(tbl, "id", "title", []int{0, 1}, 4)
	if len(c.Rows) != 1 {
		t.Fatalf("chart rows = %d, want 1 (bad value skipped)", len(c.Rows))
	}
	if c.Rows[0].Label != "app @6.4" || c.Rows[0].Value != 0.5 {
		t.Errorf("row = %+v", c.Rows[0])
	}
}

func TestChartsShape(t *testing.T) {
	charts := Charts(nil, []float64{6.4})
	if len(charts) != 5 {
		t.Fatalf("Charts returned %d charts", len(charts))
	}
	for _, c := range charts {
		if len(c.Rows) == 0 {
			t.Errorf("%s: empty chart", c.ID)
		}
		for _, r := range c.Rows {
			if r.Value <= 0 || r.Value > 2 {
				t.Errorf("%s %s: ratio %v out of plausible range", c.ID, r.Label, r.Value)
			}
		}
	}
}

// TestParseApp covers the app-spec syntax acsim, actrace and acload share: a
// Registry name or the readN family, an optional mode (smart when
// absent).
func TestParseApp(t *testing.T) {
	for _, name := range []string{"din", "cs2", "sort", "read300", "read490", " read444"} {
		as, err := ParseApp(name)
		if err != nil || as.Mode != workload.Smart || as.Make().Name() != strings.TrimSpace(name) {
			t.Errorf("ParseApp(%q) = %+v, %v", name, as, err)
		}
	}
	if as, err := ParseApp("gli:foolish"); err != nil || as.Mode != workload.Foolish || as.Name != "gli" {
		t.Errorf("ParseApp(gli:foolish) = %+v, %v", as, err)
	}
	for _, bad := range []string{"nope", "read", "readx", "read0", "din:sly", ""} {
		if _, err := ParseApp(bad); err == nil {
			t.Errorf("ParseApp(%q) accepted", bad)
		}
	}
}
