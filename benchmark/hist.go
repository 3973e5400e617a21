package main

import (
	"math"
	"math/bits"
)

// histSub sets the histogram's resolution: values below 2^histSub are
// counted exactly, and above that each power of two is cut into
// 2^histSub equal buckets, so no bucket is wider than 2^-histSub
// (0.78 %) of its lower edge.
const histSub = 7

// hist is a log-linear histogram of non-negative nanosecond values. It
// keeps memory flat however long a window runs, which an array of
// samples would not, and that matters because peak memory is itself a
// reported metric.
type hist struct {
	n      int64
	counts []int64
}

func bucketOf(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSub
	return (shift+1)<<histSub + int(v>>shift) - 1<<histSub
}

// bucketBounds returns the lower edge and width of bucket i.
func bucketBounds(i int) (lo, width int64) {
	if i < 1<<histSub {
		return int64(i), 1
	}
	shift := i>>histSub - 1
	return int64(1<<histSub+i&(1<<histSub-1)) << shift, 1 << shift
}

func (h *hist) add(v int64) {
	i := bucketOf(v)
	if i >= len(h.counts) {
		grown := make([]int64, (i+1+1<<histSub)&^(1<<histSub-1))
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]int64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at rank p*n, interpolated linearly inside
// its bucket: the result is within one bucket width of the exact sample
// quantile, and two runs that land in the same bucket still read
// differently, as measured values should.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketBounds(len(h.counts) - 1)
	return float64(lo + width)
}

// tailSupported reports whether n samples leave at least ten beyond
// percentile p — the rule for which tail percentile a timing may quote.
func tailSupported(n int64, p float64) bool {
	// The percentile sits at rank ceil(p*n); the slack keeps 0.9*100 from
	// rounding up to 91.
	return n-int64(math.Ceil(p*float64(n)-1e-9)) >= 10
}

// quantileIf is quantile(p) in microseconds when the sample supports
// percentile p, else 0.
func (h *hist) quantileIf(p float64) float64 {
	if !tailSupported(h.n, p) {
		return 0
	}
	return h.quantile(p) / 1e3
}
