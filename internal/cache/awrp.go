package cache

import "repro/internal/sim"

// awrpSample bounds the victim scan: the policy examines at most this
// many buffers from the cold (LRU) end of the global list. A bounded
// sample keeps Victim O(1) at any cache size — the same approximation
// production LFU-family evictors make — while the global list ordering
// guarantees the sample is the recency-coldest region, where AWRP's
// low-weight blocks live.
const awrpSample = 32

// awrpPolicy is AWRP, the Adaptive Weight Ranking Policy: every block
// carries a weight combining its access frequency and its recency, and
// the victim is the resident block of least weight — frequently and
// recently used blocks survive, blocks that were popular long ago decay
// away. Implemented as weight = frequency / age, with age measured on a
// policy-local logical clock that ticks once per cache access: halving
// weight per doubling of idle time, so one long-idle burst block loses
// to a steadily re-referenced one regardless of raw counts.
//
// Victim ranks a bounded sample (awrpSample) taken from the LRU end of
// the global recency list rather than the full population; see the
// constant's comment. Managers are consulted on the chosen candidate as
// under any two-level policy; no swapping, no placeholders.
type awrpPolicy struct {
	c     *Cache
	clock int64
}

func newAWRPPolicy(c *Cache) AllocPolicy { return &awrpPolicy{c: c} }

func (p *awrpPolicy) Name() Alloc        { return AWRP }
func (p *awrpPolicy) TwoLevel() bool     { return true }
func (p *awrpPolicy) Placeholders() bool { return false }

func (p *awrpPolicy) Inserted(b *Buf) {
	p.clock++
	b.pol.freq = 1
	b.pol.lastUse = p.clock
}

func (p *awrpPolicy) Touched(b *Buf) {
	p.clock++
	b.pol.freq++
	b.pol.lastUse = p.clock
}

func (p *awrpPolicy) Removed(b *Buf)                   {}
func (p *awrpPolicy) Overruled(candidate, chosen *Buf) {}

func (p *awrpPolicy) Victim(missing BlockID, now sim.Time) *Buf {
	var best *Buf
	var bestW float64
	examined := 0
	for b := p.c.head.gnext; b != p.c.tail && examined < awrpSample; b = b.gnext {
		examined++
		if b.Busy(now) {
			continue
		}
		age := p.clock - b.pol.lastUse + 1
		w := float64(b.pol.freq) / float64(age)
		if best == nil || w < bestW {
			best, bestW = b, w
		}
	}
	if best == nil {
		// Whole sample busy: the global fallback (plain LRU, busy or not).
		return p.c.lruScan(now)
	}
	return best
}
