package expt

import (
	_ "embed"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The experiment drivers all follow the same shape: one loop submits each
// row's RunSpecs to the Runner and queues the row as a closure over their
// Futures, then collect builds the rows in presentation order. Every spec
// is submitted before any row waits (so a parallel Runner can keep all its
// workers busy), and each simulation is deterministic, so the rendered
// tables are byte-identical regardless of parallelism.

// collect builds the queued rows in order, each waiting on its own runs.
func collect(rows []func()) {
	for _, row := range rows {
		row()
	}
}

// sizeIdx maps a cache size to its index in Sizes (for paper lookups).
func sizeIdx(mb float64) int {
	for i, s := range Sizes {
		if s == mb {
			return i
		}
	}
	return -1
}

// Fig4 reproduces Figure 4 and the appendix Tables 5 and 6: every single
// application under the original kernel and under LRU-SP with its smart
// policy, across the four cache sizes. It returns the elapsed-time table
// and the block-I/O table.
func Fig4(r *Runner, sizes []float64) []Table {
	if sizes == nil {
		sizes = Sizes
	}
	elapsed := Table{
		ID:    "table5",
		Title: "Single-application elapsed time (seconds), original kernel vs LRU-SP (Figure 4 top / Table 5)",
		Note: "sim = this reproduction; paper = appendix Table 5. Absolute " +
			"seconds depend on the CPU/disk model; the ratio column is the result.",
		Header: []string{"app", "MB", "sim orig", "sim sp", "sim ratio", "paper orig", "paper sp", "paper ratio"},
	}
	ios := Table{
		ID:    "table6",
		Title: "Single-application block I/Os, original kernel vs LRU-SP (Figure 4 bottom / Table 6)",
		Note: "Block I/O counts are a nearly pure function of the reference " +
			"stream and replacement policy, so sim and paper should be close.",
		Header: []string{"app", "MB", "sim orig", "sim sp", "sim ratio", "paper orig", "paper sp", "paper ratio"},
	}
	var rows []func()
	for _, app := range singleApps {
		for _, mb := range sizes {
			origF := r.Submit(RunSpec{
				Apps:    mixSpec([]string{app}, workload.Oblivious),
				CacheMB: mb, Alloc: cache.GlobalLRU,
			})
			spF := r.Submit(RunSpec{
				Apps:    mixSpec([]string{app}, workload.Smart),
				CacheMB: mb, Alloc: cache.LRUSP,
			})
			rows = append(rows, func() {
				orig, sp := origF.Wait(), spF.Wait()
				oe, se := orig.TotalElapsed.Seconds(), sp.TotalElapsed.Seconds()
				oi, si := orig.TotalIOs, sp.TotalIOs
				var pe, pse string
				var pio, psio string
				var per, pir string
				if i := sizeIdx(mb); i >= 0 {
					pRow := PaperSingles[app]
					pe = fmtSecs(pRow.ElapsedOrig[i])
					pse = fmtSecs(pRow.ElapsedSP[i])
					per = fmtRatio(pRow.ElapsedSP[i] / pRow.ElapsedOrig[i])
					pio = fmt.Sprint(pRow.IOsOrig[i])
					psio = fmt.Sprint(pRow.IOsSP[i])
					pir = fmtRatio(float64(pRow.IOsSP[i]) / float64(pRow.IOsOrig[i]))
				}
				elapsed.Rows = append(elapsed.Rows, []string{
					app, fmt.Sprint(mb), fmtSecs(oe), fmtSecs(se), fmtRatio(se / oe), pe, pse, per,
				})
				ios.Rows = append(ios.Rows, []string{
					app, fmt.Sprint(mb), fmt.Sprint(oi), fmt.Sprint(si), fmtRatio(float64(si) / float64(oi)), pio, psio, pir,
				})
			})
		}
	}
	collect(rows)
	return []Table{elapsed, ios}
}

// Fig5 reproduces Figure 5: the nine concurrent-application mixes under
// the original kernel (all oblivious) and LRU-SP (all smart), reporting
// totals normalized to the original kernel.
func Fig5(r *Runner, sizes []float64) []Table {
	t := Table{
		ID:    "fig5",
		Title: "Multiple concurrent applications, LRU-SP vs original kernel (Figure 5)",
		Note: "Total elapsed time (last application to finish) and total " +
			"block I/Os, normalized to the original kernel (= 1.0). The paper's " +
			"figure shows ratios improving as the cache grows, down to about " +
			"0.7 for elapsed time and below 0.6 for I/Os at 16 MB.",
		Header: []string{"mix", "MB", "orig s", "sp s", "elapsed ratio", "orig IOs", "sp IOs", "IO ratio"},
	}
	mixRows(r, &t, Fig5Mixes, sizes, kernel{workload.Oblivious, cache.GlobalLRU}, kernel{workload.Smart, cache.LRUSP})
	return []Table{t}
}

// Fig6 reproduces Figure 6: the five mixes re-run with ALLOC-LRU (two-
// level replacement without swapping or placeholders), normalized to
// LRU-SP. The LRU-SP runs are spec-identical to Figure 5's, so under a
// caching Runner they are memo hits, not re-executions.
func Fig6(r *Runner, sizes []float64) []Table {
	t := Table{
		ID:    "fig6",
		Title: "ALLOC-LRU vs LRU-SP for concurrent applications (Figure 6)",
		Note: "Values are ALLOC-LRU normalized to LRU-SP (= 1.0); above 1.0 " +
			"means the basic allocator without swapping penalizes smart " +
			"processes, the paper's argument that swapping is necessary.",
		Header: []string{"mix", "MB", "sp s", "alloc-lru s", "elapsed ratio", "sp IOs", "alloc-lru IOs", "IO ratio"},
	}
	mixRows(r, &t, Fig6Mixes, sizes, kernel{workload.Smart, cache.LRUSP}, kernel{workload.Smart, cache.AllocLRU})
	return []Table{t}
}

// kernel is one side of a Figure 5 or 6 comparison: the mode every
// application runs in, and the allocation policy.
type kernel struct {
	mode  workload.Mode
	alloc cache.Alloc
}

// mixRows fills t with one row per mix and cache size (nil: the paper's):
// each mix's total elapsed time and block I/Os under the base and alt
// kernels, and alt's ratios to base.
func mixRows(r *Runner, t *Table, mixes [][]string, sizes []float64, base, alt kernel) {
	if sizes == nil {
		sizes = Sizes
	}
	var rows []func()
	for _, mix := range mixes {
		name := strings.Join(mix, "+")
		for _, mb := range sizes {
			baseF := r.Submit(RunSpec{Apps: mixSpec(mix, base.mode), CacheMB: mb, Alloc: base.alloc})
			altF := r.Submit(RunSpec{Apps: mixSpec(mix, alt.mode), CacheMB: mb, Alloc: alt.alloc})
			rows = append(rows, func() {
				b, a := baseF.Wait(), altF.Wait()
				t.Rows = append(t.Rows, []string{
					name, fmt.Sprint(mb),
					fmtSecs(b.TotalElapsed.Seconds()), fmtSecs(a.TotalElapsed.Seconds()),
					fmtRatio(a.TotalElapsed.Seconds() / b.TotalElapsed.Seconds()),
					fmt.Sprint(b.TotalIOs), fmt.Sprint(a.TotalIOs),
					fmtRatio(float64(a.TotalIOs) / float64(b.TotalIOs)),
				})
			})
		}
	}
	collect(rows)
}

// table1Spec builds one Table 1 run: a background Read300 and a foreground
// probe ReadN, both on disk 0, at the paper's 6.4 MB cache.
func table1Spec(n int32, setting string) RunSpec {
	bgMode := workload.Oblivious
	alloc := cache.LRUSP
	switch setting {
	case "Unprotected":
		bgMode = workload.Foolish
		alloc = cache.LRUS
	case "Protected":
		bgMode = workload.Foolish
	}
	return RunSpec{
		Apps: []AppSpec{
			namedApp("read300@d0", func() workload.App { return workload.Read300(0) }, bgMode),
			namedApp(fmt.Sprintf("probe%d@d0", n), func() workload.App { return workload.Probe(n, 0) }, workload.Oblivious),
		},
		CacheMB: 6.4,
		Alloc:   alloc,
	}
}

// Table1 reproduces the placeholder-effectiveness experiment: an oblivious
// probe ReadN next to a background Read300 that is either oblivious (LRU)
// or foolish (MRU), with and without placeholders.
func Table1(r *Runner) []Table {
	t := Table{
		ID:    "table1",
		Title: "Are placeholders necessary? Probe ReadN next to Read300 (Table 1)",
		Note: "Oblivious: Read300 uses LRU. Unprotected: Read300 uses a " +
			"foolish MRU policy and the kernel runs LRU-S (no placeholders). " +
			"Protected: foolish Read300 under full LRU-SP. Placeholders should " +
			"pull the probe's I/Os back down to the oblivious level.",
		Header: []string{"setting", "N", "sim s", "paper s", "sim IOs", "paper IOs"},
	}
	var rows []func()
	for _, setting := range PaperTable1.Settings {
		for i, n := range PaperTable1.Ns {
			f := r.Submit(table1Spec(n, setting))
			rows = append(rows, func() {
				probe := f.Wait().PerApp[1]
				t.Rows = append(t.Rows, []string{
					setting, fmt.Sprint(n),
					fmtSecs(probe.Elapsed.Seconds()), fmtSecs(PaperTable1.Elapsed[setting][i]),
					fmt.Sprint(probe.BlockIOs), fmt.Sprint(PaperTable1.BlockIOs[setting][i]),
				})
			})
		}
	}
	collect(rows)
	return []Table{t}
}

// Table2 reproduces the foolish-process experiment: each smart application
// concurrently with a Read300 that is oblivious or foolish, one disk.
func Table2(r *Runner) []Table {
	t := Table{
		ID:    "table2",
		Title: "Effect of a foolish process on smart applications (Table 2)",
		Note: "Each application runs its smart policy under LRU-SP next to a " +
			"Read300 on the same disk. A foolish Read300 still slows the smart " +
			"application (longer disk queues, longer occupancy), though " +
			"placeholders bound the damage.",
		Header: []string{"app", "Read300", "sim s", "paper s", "sim IOs", "paper IOs"},
	}
	var rows []func()
	for _, policy := range []string{"Oblivious", "Foolish"} {
		for i, partner := range PaperTable2.Partners {
			bgMode := workload.Oblivious
			if policy == "Foolish" {
				bgMode = workload.Foolish
			}
			f := r.Submit(RunSpec{
				Apps: []AppSpec{
					{Name: partner, Make: Registry[partner], Mode: workload.Smart},
					namedApp("read300@d0", func() workload.App { return workload.Read300(0) }, bgMode),
				},
				CacheMB: 6.4,
				Alloc:   cache.LRUSP,
			})
			rows = append(rows, func() {
				app := f.Wait().PerApp[0]
				t.Rows = append(t.Rows, []string{
					partner, strings.ToLower(policy),
					fmtSecs(app.Elapsed.Seconds()), fmtSecs(PaperTable2.Elapsed[policy][i]),
					fmt.Sprint(app.BlockIOs), fmt.Sprint(PaperTable2.BlockIOs[policy][i]),
				})
			})
		}
	}
	collect(rows)
	return []Table{t}
}

// table34 runs the smart-vs-oblivious-partner experiment with Read300 on
// the given disk (0 reproduces Table 3, 1 reproduces Table 4). The
// partner-smart runs on disk 0 are spec-identical to Table 2's oblivious
// rows, another memo-cache overlap.
func table34(r *Runner, id, title string, readDisk int, paper map[string][4]float64, partners []string) Table {
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"partner", "sim obl s", "paper obl s", "sim smart s", "paper smart s"},
		Note: "Elapsed time of the oblivious Read300 when its partner runs " +
			"oblivious vs smart. Smart partners must not hurt oblivious " +
			"processes; on one disk they generally help by reducing disk load.",
	}
	var rows []func()
	for i, partner := range partners {
		var pair [2]*Future
		for j, partnerMode := range []workload.Mode{workload.Oblivious, workload.Smart} {
			pair[j] = r.Submit(RunSpec{
				Apps: []AppSpec{
					{Name: partner, Make: Registry[partner], Mode: partnerMode},
					namedApp(fmt.Sprintf("read300@d%d", readDisk),
						func() workload.App { return workload.Read300(readDisk) }, workload.Oblivious),
				},
				CacheMB: 6.4,
				Alloc:   cache.LRUSP,
			})
		}
		rows = append(rows, func() {
			obl, smart := pair[0].Wait().PerApp[1], pair[1].Wait().PerApp[1]
			t.Rows = append(t.Rows, []string{
				partner,
				fmtSecs(obl.Elapsed.Seconds()), fmtSecs(paper["Oblivious"][i]),
				fmtSecs(smart.Elapsed.Seconds()), fmtSecs(paper["Smart"][i]),
			})
		})
	}
	collect(rows)
	return t
}

// Table3 reproduces the do-smart-processes-hurt-oblivious-ones experiment
// on one disk.
func Table3(r *Runner) []Table {
	return []Table{table34(r, "table3",
		"Elapsed time of oblivious Read300 with oblivious vs smart partners, one disk (Table 3)",
		0, PaperTable3.Elapsed, PaperTable3.Partners)}
}

// Table4 reproduces the same experiment with Read300 on its own disk,
// where the paper's disk-contention anomaly disappears.
func Table4(r *Runner) []Table {
	return []Table{table34(r, "table4",
		"Elapsed time of oblivious Read300 with oblivious vs smart partners, two disks (Table 4)",
		1, PaperTable4.Elapsed, PaperTable4.Partners)}
}

// Ablation exercises the design extensions: revocation of foolish
// managers (the paper's footnote 7) and the contribution of read-ahead.
func Ablation(r *Runner) []Table {
	rev := Table{
		ID:    "ablation-revoke",
		Title: "Revocation of foolish managers (paper footnote 7, implemented)",
		Note: "A foolish Read300 (MRU) next to an oblivious Read400 probe at " +
			"6.4 MB. With revocation enabled the kernel withdraws the foolish " +
			"manager's control after its placeholder mistakes cross 30% of its " +
			"decisions, restoring both processes toward the oblivious baseline.",
		Header: []string{"kernel", "probe IOs", "probe s", "read300 IOs", "revocations"},
	}
	type variant struct {
		name   string
		alloc  cache.Alloc
		revoke bool
		bgMode workload.Mode
	}
	variants := []variant{
		{"lru-sp, oblivious bg", cache.LRUSP, false, workload.Oblivious},
		{"alloc-lru, foolish bg", cache.AllocLRU, false, workload.Foolish},
		{"lru-s, foolish bg", cache.LRUS, false, workload.Foolish},
		{"lru-sp, foolish bg", cache.LRUSP, false, workload.Foolish},
		{"lru-sp+revoke, foolish bg", cache.LRUSP, true, workload.Foolish},
	}
	var rows []func()
	for _, v := range variants {
		f := r.Submit(RunSpec{
			Apps: []AppSpec{
				namedApp("read300@d0", func() workload.App { return workload.Read300(0) }, v.bgMode),
				namedApp("probe400@d0", func() workload.App { return workload.Probe(400, 0) }, workload.Oblivious),
			},
			CacheMB: 6.4,
			Alloc:   v.alloc,
			Revoke:  v.revoke,
		})
		rows = append(rows, func() {
			res := f.Wait()
			rev.Rows = append(rev.Rows, []string{
				v.name,
				fmt.Sprint(res.PerApp[1].BlockIOs), fmtSecs(res.PerApp[1].Elapsed.Seconds()),
				fmt.Sprint(res.PerApp[0].BlockIOs),
				fmt.Sprint(res.CacheStats.Revocations),
			})
		})
	}
	collect(rows)

	ra := Table{
		ID:    "ablation-readahead",
		Title: "Read-ahead depth ablation (model ablation)",
		Note: "din and sort at 6.4 MB under both kernels across read-ahead " +
			"depths. Depth 1 is Ultrix breada and the reproduction default; " +
			"deeper read-ahead (a clustered kernel) would have shortened " +
			"elapsed times further without changing block I/O counts for " +
			"these sequential workloads.",
		Header: []string{"app", "kernel", "depth", "IOs", "elapsed s"},
	}
	rows = nil
	for _, app := range []string{"din", "sort"} {
		for _, smart := range []bool{false, true} {
			for _, depth := range []int{0, 1, 2, 4} {
				mode, alloc, kernel := workload.Oblivious, cache.GlobalLRU, "original"
				if smart {
					mode, alloc, kernel = workload.Smart, cache.LRUSP, "lru-sp"
				}
				f := r.Submit(RunSpec{
					Apps:    mixSpec([]string{app}, mode),
					CacheMB: 6.4,
					Alloc:   alloc,
					Opts:    Options{ReadAheadOff: depth == 0, ReadAheadDepth: depth},
				})
				rows = append(rows, func() {
					res := f.Wait()
					ra.Rows = append(ra.Rows, []string{
						app, kernel, fmt.Sprint(depth),
						fmt.Sprint(res.TotalIOs), fmtSecs(res.TotalElapsed.Seconds()),
					})
				})
			}
		}
	}
	collect(rows)

	vr := Table{
		ID:    "ablation-variance",
		Title: "Run-to-run variance over five seeds (the paper's methodology check)",
		Note: "The paper averages five cold-start runs and reports variances " +
			"under 2% (a few under 5%). Here seeds perturb only rotational " +
			"latencies, so block I/Os are identical across runs and elapsed " +
			"variance stays within the paper's bound.",
		Header: []string{"app", "kernel", "mean s", "max dev", "IOs"},
	}
	for _, app := range []string{"cs1", "pjn", "sort"} {
		for _, smart := range []bool{false, true} {
			mode, alloc, kernel := workload.Oblivious, cache.GlobalLRU, "original"
			if smart {
				mode, alloc, kernel = workload.Smart, cache.LRUSP, "lru-sp"
			}
			st := RunRepeated(r, RunSpec{
				Apps:    mixSpec([]string{app}, mode),
				CacheMB: 6.4,
				Alloc:   alloc,
			}, 5)
			vr.Rows = append(vr.Rows, []string{
				app, kernel,
				fmtSecs(st.MeanElapsed.Seconds()),
				fmt.Sprintf("%.2f%%", 100*st.VarianceFrac),
				fmt.Sprint(st.TotalIOs),
			})
		}
	}
	up := Table{
		ID:    "ablation-update",
		Title: "Update policy x disk scheduling (Mogul '94 [21]; the paper's closing future-work question)",
		Note: "sort (write-heavy, RZ26) next to a latency-sensitive Read300 " +
			"on the same disk, crossing Ultrix's 30 s sync bursts vs spread " +
			"write-back with FIFO vs C-LOOK request scheduling. Measured: " +
			"the elevator is worth ~13% to both processes; under FIFO, " +
			"spreading the bursts buys the probe a further few seconds " +
			"(Mogul's observation), while behind the elevator the update " +
			"policy barely matters — the sweeps absorb the bursts. Caching, " +
			"write-back and disk scheduling interact, exactly the question " +
			"the paper's final section leaves open.",
		Header: []string{"scheduler", "update policy", "read300 s", "sort s", "max queue"},
	}
	rows = nil
	for _, fifo := range []bool{true, false} {
		for _, spread := range []bool{false, true} {
			f := r.Submit(RunSpec{
				Apps: []AppSpec{
					{Name: "sort", Make: Registry["sort"], Mode: workload.Smart},
					namedApp("read300@d1", func() workload.App { return workload.Read300(1) }, workload.Oblivious),
				},
				CacheMB:    6.4,
				Alloc:      cache.LRUSP,
				SpreadSync: spread,
				FIFODisk:   fifo,
			})
			sname := "c-look"
			if fifo {
				sname = "fifo"
			}
			name := "30s bursts"
			if spread {
				name = "spread"
			}
			rows = append(rows, func() {
				res := f.Wait()
				up.Rows = append(up.Rows, []string{
					sname, name,
					fmtSecs(res.PerApp[1].Elapsed.Seconds()), fmtSecs(res.PerApp[0].Elapsed.Seconds()),
					fmt.Sprint(res.MaxQueue),
				})
			})
		}
	}
	collect(rows)
	uc := Table{
		ID:    "ablation-upcall",
		Title: "Primitive interface vs upcall-based control (Section 7 related-work claim)",
		Note: "The paper's interface costs a procedure call per " +
			"replace_block consultation; the upcall/RPC systems it cites paid " +
			"up to 10% of total execution time. Charging 1 ms per " +
			"consultation (two 1994 context switches) reproduces that " +
			"overhead band on the consultation-heavy workloads.",
		Header: []string{"app", "control", "consults", "elapsed s", "overhead"},
	}
	rows = nil
	for _, app := range []string{"din", "cs2", "sort"} {
		spec := RunSpec{
			Apps:    mixSpec([]string{app}, workload.Smart),
			CacheMB: 6.4,
			Alloc:   cache.LRUSP,
		}
		primF := r.Submit(spec)
		spec.UpcallCPU = sim.Millisecond
		upF := r.Submit(spec)
		rows = append(rows, func() {
			prim, up := primF.Wait(), upF.Wait()
			base, secs := prim.TotalElapsed.Seconds(), up.TotalElapsed.Seconds()
			uc.Rows = append(uc.Rows,
				[]string{app, "primitives", fmt.Sprint(prim.CacheStats.Consults), fmtSecs(base), ""},
				[]string{app, "upcalls", fmt.Sprint(up.CacheStats.Consults), fmtSecs(secs),
					fmt.Sprintf("+%.1f%%", 100*(secs/base-1))},
			)
		})
	}
	collect(rows)
	return []Table{rev, ra, vr, up, uc}
}

// Experiments maps experiment ids to their drivers (full sizes). Every
// driver takes the Runner its specs are submitted through.
var Experiments = map[string]func(*Runner) []Table{
	"fig4":     func(r *Runner) []Table { return Fig4(r, nil) },
	"fig5":     func(r *Runner) []Table { return Fig5(r, nil) },
	"fig6":     func(r *Runner) []Table { return Fig6(r, nil) },
	"table1":   Table1,
	"table2":   Table2,
	"table3":   Table3,
	"table4":   Table4,
	"ablation": Ablation,
	"policies": func(r *Runner) []Table { return Policies(r, nil) },
	"vm":       VM,
	// Not in Order: the tournament compares post-paper policies, so it
	// runs on request (acbench -tournament) rather than inside "all".
	"tournament": Tournament,
}

// Order is the presentation order for "all".
var Order = []string{"fig4", "fig5", "fig6", "table1", "table2", "table3", "table4", "ablation", "policies", "vm"}

//go:embed golden/des_tables.sha256
var goldenFile string

// GoldenTables returns the SHA-256, in hex, of each experiment's
// rendered tables, keyed by Experiments id: the reproduction's output,
// pinned. A change meant to move a table byte updates
// golden/des_tables.sha256 in its own diff.
func GoldenTables() map[string]string {
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(goldenFile), "\n") {
		sum, id, _ := strings.Cut(line, "  ")
		golden[id] = sum
	}
	return golden
}
