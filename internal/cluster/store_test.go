package cluster

import (
	"fmt"
	"testing"

	"repro/internal/disk"
)

// BenchmarkNodeStoreFill: one NodeStore.ReadBlocks call per op, a
// same-file run of 1, 4 or 16 blocks read from a DirOrigin, reported as
// µs per block. The origin's file was just written, so it is in the page
// cache: this is a hot origin, not a cold disk.
func BenchmarkNodeStoreFill(b *testing.B) {
	const fileBlocks = 256
	origin, err := NewDirOrigin(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	src := make([][]byte, fileBlocks)
	for i := range src {
		src[i] = make([]byte, disk.BlockSize)
		src[i][0] = byte(i)
	}
	if err := origin.WriteRun("bench/file", 0, src); err != nil {
		b.Fatal(err)
	}
	ns := NewNodeStore(origin)
	ns.Announce(1, "bench/file")
	for _, run := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("run%d", run), func(b *testing.B) {
			specs := make([]disk.BlockSpan, run)
			dsts := make([][]byte, run)
			for i := range dsts {
				dsts[i] = make([]byte, disk.BlockSize)
			}
			for i := 0; i < b.N; i++ {
				start := int32(i * run % (fileBlocks - run + 1))
				for j := range specs {
					specs[j] = disk.BlockSpan{File: 1, Blk: start + int32(j)}
				}
				for _, err := range ns.ReadBlocks(specs, dsts) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*run), "us/block")
		})
	}
}
