// adapter.go — the online allocation-policy adapter.
//
// One adapter per shard, owned (like the kernel) by the shard loop
// goroutine: tick runs between requests, reads the kernel's windowed
// hit-ratio gauge, and flips the shard's allocation policy through the
// same cache.SetAlloc migration the set_alloc wire op uses. Shards adapt
// independently — each is its own replacement domain, and a skewed file
// hash can genuinely want ARC in one shard and plain LRU in another.
//
// The schedule is sample-then-settle with periodic probes. Epochs are
// counted in completed hit windows (adaptEpochWindows windows per
// epoch), so the clock is request traffic itself; an idle shard never
// swaps. The first pass runs every candidate for one epoch to seed its
// score (an EWMA of the last-window hit ratio, in basis points); after
// that the best candidate is the incumbent, and every adapterProbeEvery
// steady epochs one non-incumbent candidate gets a single probe epoch.
// The probe (or a freshly sampled rival) takes over only when its score
// beats the incumbent's by more than adaptHysteresisBP — the
// hysteresis that keeps measurement noise from thrashing the policy,
// since every flip pays a full-cache migration and drops the ARC ghost
// history the next policy would have to rebuild.
package server

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
)

const (
	// adaptEpochWindows is the adapter epoch length in completed hit
	// windows (the kernel's window is 1024 accesses).
	adaptEpochWindows = 4
	// adapterProbeEvery is the number of steady epochs between probes of
	// a non-incumbent candidate.
	adapterProbeEvery = 8
	// adaptHysteresisBP is the switching threshold in basis points of
	// windowed hit ratio: two percentage points.
	adaptHysteresisBP = 200
)

type allocAdapter struct {
	kern *core.Live

	candidates []cache.Alloc
	score      []float64 // EWMA of windowed hit ratio (bp); -1 = unsampled

	cur       int  // active candidate (== what the kernel runs)
	incumbent int  // settled best, valid once sampling is false
	sampling  bool // initial one-epoch-per-candidate pass
	probing   bool // mid-probe of a non-incumbent
	steady    int64
	probeAt   int // round-robin cursor for picking probes

	lastWindows int64
}

// newAllocAdapter parses the candidate list and points the kernel at the
// first candidate to start the sampling pass. Panics on an unknown or
// duplicate name — adapter config is operator input, checked at startup.
func newAllocAdapter(names []string, kern *core.Live) *allocAdapter {
	ad := &allocAdapter{kern: kern, sampling: true}
	seen := make(map[cache.Alloc]bool)
	for _, name := range names {
		a, err := cache.ParseAlloc(name)
		if err != nil {
			panic(fmt.Sprintf("server: adapt-alloc: %v", err))
		}
		if seen[a] {
			panic(fmt.Sprintf("server: adapt-alloc: duplicate candidate %q", a))
		}
		seen[a] = true
		ad.candidates = append(ad.candidates, a)
		ad.score = append(ad.score, -1)
	}
	if err := kern.SetAllocPolicy(ad.candidates[0]); err != nil {
		panic(fmt.Sprintf("server: adapt-alloc: %v", err))
	}
	return ad
}

// tick advances the adapter; called from the shard loop between
// requests. A no-op until the current epoch's windows have completed.
func (ad *allocAdapter) tick() {
	wd := ad.kern.HitWindowsDone()
	if wd-ad.lastWindows < adaptEpochWindows {
		return
	}
	ad.lastWindows = wd

	// Fold the epoch's observation into the active candidate's score.
	obs := float64(ad.kern.HitRatioWindowBP())
	if ad.score[ad.cur] < 0 {
		ad.score[ad.cur] = obs
	} else {
		ad.score[ad.cur] = (ad.score[ad.cur] + obs) / 2
	}

	switch {
	case ad.sampling:
		if ad.cur+1 < len(ad.candidates) {
			ad.switchTo(ad.cur + 1)
			return
		}
		// Every candidate has one epoch of evidence; settle on the best.
		best := 0
		for i, s := range ad.score {
			if s > ad.score[best] {
				best = i
			}
		}
		ad.sampling = false
		ad.incumbent = best
		ad.switchTo(best)
	case ad.probing:
		ad.probing = false
		if ad.score[ad.cur] > ad.score[ad.incumbent]+adaptHysteresisBP {
			ad.incumbent = ad.cur // the probe wins the shard
		} else {
			ad.switchTo(ad.incumbent)
		}
	default:
		ad.steady++
		if ad.steady >= adapterProbeEvery && len(ad.candidates) > 1 {
			ad.steady = 0
			ad.probing = true
			ad.switchTo(ad.nextProbe())
		}
	}
}

// nextProbe round-robins over the non-incumbent candidates.
func (ad *allocAdapter) nextProbe() int {
	for {
		ad.probeAt = (ad.probeAt + 1) % len(ad.candidates)
		if ad.probeAt != ad.incumbent {
			return ad.probeAt
		}
	}
}

// switchTo installs candidates[i] in the kernel. A migration failure
// cannot happen for registry-vetted names on a Replacer-backed kernel;
// if it somehow does, the adapter stays where it is rather than lying
// about cur.
func (ad *allocAdapter) switchTo(i int) {
	if i == ad.cur {
		return
	}
	if err := ad.kern.SetAllocPolicy(ad.candidates[i]); err != nil {
		return
	}
	ad.cur = i
}
