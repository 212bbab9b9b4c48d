package center

import (
	"sync"
	"testing"

	"dcstream/internal/transport"
)

// TestEvictionRaceAndLedger hammers a two-epoch ring from concurrent
// writers with ever-increasing epochs (an eviction storm) and checks the
// ledger invariant the Stats doc promises: every message seen is either
// ingested or late — dropped digests were ingested first, so they don't
// enter the equation. Run under -race this also exercises windowFor's
// eviction path for data races.
func TestEvictionRaceAndLedger(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 200
		totalSends = writers * perWriter
	)
	c := New(Config{MaxEpochs: 2})
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(router int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Epochs climb globally but interleave across writers, so
				// late arrivals and evictions both happen constantly.
				c.Ingest(transport.AlignedDigest{
					RouterID: router,
					Epoch:    i * 3,
					Bitmap:   smallBitmap(uint64(router*1000 + i)),
				})
			}
		}(wtr)
	}
	wg.Wait()

	s := c.Stats()
	if s.DigestsIngested.Load()+s.ReplacedDigests.Load()+s.LateDigests.Load() != totalSends {
		t.Fatalf("ledger broken: ingested %d + replaced %d + late %d != %d seen",
			s.DigestsIngested.Load(), s.ReplacedDigests.Load(), s.LateDigests.Load(), totalSends)
	}
	if s.EpochsEvicted.Load() == 0 {
		t.Fatal("eviction storm evicted nothing — the test lost its point")
	}
	if got := len(c.Epochs()); got > 2 {
		t.Fatalf("ring holds %d epochs, cap is 2", got)
	}
	if s.DroppedDigests.Load() == 0 {
		t.Fatal("evictions dropped no digests")
	}
}
