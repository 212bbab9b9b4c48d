package unaligned

import (
	"fmt"
	"testing"

	"dcstream/internal/stats"
)

// BenchmarkTrackerAdd is a burst's worth of steady-state ingest at the bench
// geometry — 31 banks of 4 groups × 10 arrays × 512 bits, spread over the
// reach — into a tracker whose prune tables are already built, as the
// center's are after its first epochs.
func BenchmarkTrackerAdd(b *testing.B) {
	for _, reach := range []int{1, 3} {
		b.Run(fmt.Sprintf("reach%d", reach), func(b *testing.B) {
			rng := stats.NewRand(uint64(70 + reach))
			digests := make([]*Digest, 31)
			for r := range digests {
				digests[r] = bankDigest(rng, r, 4, 10, 512, 0.42)
			}
			plantRow(rng, digests[3], digests[17], 0, 2)
			plantRow(rng, digests[8], digests[30], 1, 3)
			tr := NewTracker(TrackerConfig{Reach: reach})
			burst := func() {
				for i, d := range digests {
					tr.Add(1+i%reach, d)
				}
			}
			burst()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for e := 1; e <= reach; e++ {
					tr.DropEpoch(e)
				}
				b.StartTimer()
				burst()
			}
		})
	}
}
