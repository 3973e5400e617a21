package core

import "testing"

// TestReleasedOwnersHoldNoReadAheadState runs a long-lived kernel through
// many short sessions — add an owner, scan a file sequentially under
// read-ahead, release — and checks that a released owner keeps neither of
// its per-file run maps (owner ids are never reused, so l.owners only
// grows) and that every scan prefetches exactly as the first one did,
// however many owners came before it.
func TestReleasedOwnersHoldNoReadAheadState(t *testing.T) {
	const (
		sessions = 1000
		blocks   = 32 // 4x the cache: each scan starts cold
	)
	l := NewLive(LiveConfig{
		CacheBytes:     8 * BlockSize,
		ReadAhead:      true,
		ReadAheadDepth: 4,
	})
	setup := l.AddOwner("setup")
	f, err := l.Create(setup, "f", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	var prevHits int64
	for s := 0; s < sessions; s++ {
		ow := l.AddOwner("scan")
		for blk := int32(0); blk < blocks; blk++ {
			l.Read(ow, f.ID(), blk, 0, 8, func(_ []byte, _ bool, err error) {
				if err != nil {
					t.Fatalf("session %d read %d: %v", s, blk, err)
				}
			})
		}
		st, err := l.ReleaseOwner(ow)
		if err != nil {
			t.Fatal(err)
		}
		// Blocks 0 and 1 are demand misses (the detector needs two reads);
		// everything after is prefetched and then hit.
		hits := l.fill.PrefetchHits
		if st.Prefetches != blocks-2 || hits-prevHits != blocks-2 || st.Misses != 2 {
			t.Fatalf("session %d: %d prefetches, %d prefetch hits, %d misses; want %d, %d, 2",
				s, st.Prefetches, hits-prevHits, st.Misses, blocks-2, blocks-2)
		}
		prevHits = hits
	}
	for id, o := range l.owners {
		if !o.live && (o.lastRead != nil || o.raUntil != nil) {
			t.Fatalf("released owner %d still holds its read-ahead maps (%d, %d entries)",
				id, len(o.lastRead), len(o.raUntil))
		}
	}
	l.CheckInvariants()
}
