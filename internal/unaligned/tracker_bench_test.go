package unaligned

import (
	"fmt"
	"testing"

	"dcstream/internal/stats"
)

// BenchmarkTrackerAdd is a burst's worth of steady-state ingest at the bench
// geometry — 31 banks of 4 groups × 10 arrays × 512 bits, spread over the
// reach — into a tracker whose prune tables are already built, as the
// center's are after its first epochs. reach3drop also times the DropEpoch
// calls that empty the tracker between bursts, as span closes retire epochs.
func BenchmarkTrackerAdd(b *testing.B) {
	for _, c := range []struct {
		reach int
		drop  bool
	}{{1, false}, {3, false}, {3, true}} {
		name := fmt.Sprintf("reach%d", c.reach)
		if c.drop {
			name += "drop"
		}
		b.Run(name, func(b *testing.B) {
			rng := stats.NewRand(uint64(70 + c.reach))
			digests := make([]*Digest, 31)
			for r := range digests {
				digests[r] = bankDigest(rng, r, 4, 10, 512, 0.42)
			}
			plantRow(rng, digests[3], digests[17], 0, 2)
			plantRow(rng, digests[8], digests[30], 1, 3)
			tr := NewTracker(TrackerConfig{Reach: c.reach})
			burst := func() {
				for i, d := range digests {
					tr.Add(1+i%c.reach, d)
				}
			}
			burst()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !c.drop {
					b.StopTimer()
				}
				for e := 1; e <= c.reach; e++ {
					tr.DropEpoch(e)
				}
				if !c.drop {
					b.StartTimer()
				}
				burst()
			}
		})
	}
}
