// Benchmarks that regenerate every table and figure of the paper's
// evaluation, one sub-benchmark per experiment: BenchmarkExperiment/<id>
// for every id of acbench -run all, then the allocation-policy tournament.
// Each iteration runs the experiment's own driver serially with no run
// cache, so ns/op is the simulator's cost for the whole experiment. The
// tables are the science (acbench prints them); the benchmark's des_paper
// workload times the same drivers beside the environment.
//
// Run with: go test -run '^$' -bench Experiment -benchmem
package acfc_test

import (
	"slices"
	"testing"

	"repro/internal/expt"
)

func BenchmarkExperiment(b *testing.B) {
	for _, id := range slices.Concat(expt.Order, []string{"tournament"}) {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(expt.Experiments[id](nil)) == 0 {
					b.Fatalf("%s rendered no table", id)
				}
			}
		})
	}
}
