package center

import (
	"errors"
	"testing"

	"dcstream/internal/transport"
)

// TestOwnsEpochFilterCountsMisrouted: a digest whose epoch fails the
// OwnsEpoch partition predicate is counted misrouted and dropped whole — no
// window opens, and the router registry never learns about the sender, so
// shard quorum reasons only about traffic actually routed here.
func TestOwnsEpochFilterCountsMisrouted(t *testing.T) {
	c := New(Config{OwnsEpoch: func(e int) bool { return e%2 == 0 }})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 3, Bitmap: smallBitmap(1)})
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 4, Bitmap: smallBitmap(2)})
	s := c.Stats()
	if s.MisroutedDigests.Load() != 1 || s.DigestsIngested.Load() != 1 {
		t.Fatalf("misrouted=%d ingested=%d, want 1/1", s.MisroutedDigests.Load(), s.DigestsIngested.Load())
	}
	if got := c.Epochs(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("buffered epochs %v, want [4] (misrouted epoch must not open a window)", got)
	}
	if rs := c.Routers(); len(rs) != 1 || rs[0].RouterID != 2 {
		t.Fatalf("router registry %+v, want only router 2 (misrouted sender never registered)", rs)
	}
}

// TestOwnsSpanGatesAnalysis: Analyze refuses a non-owned span with
// ErrNotOwned, and AnalyzeLatestComplete only ever emits owned spans — the
// non-owned epochs this shard buffers as context are another shard's to
// report.
func TestOwnsSpanGatesAnalysis(t *testing.T) {
	c := New(Config{OwnsSpan: func(e int) bool { return e == 2 }})
	for epoch := 1; epoch <= 3; epoch++ {
		for r := 0; r < 2; r++ {
			c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: epoch, Bitmap: smallBitmap(uint64(epoch*10 + r))})
		}
	}
	if _, err := c.Analyze(1); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("Analyze of non-owned span: %v, want ErrNotOwned", err)
	}
	rep, err := c.AnalyzeLatestComplete()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 {
		t.Fatalf("AnalyzeLatestComplete emitted epoch %d, want owned epoch 2 (epoch 1 skipped)", rep.Epoch)
	}
	if _, err := c.AnalyzeLatestComplete(); !errors.Is(err, ErrNoCompleteEpoch) {
		t.Fatalf("second AnalyzeLatestComplete: %v, want ErrNoCompleteEpoch (1 and 3 not owned / newest)", err)
	}
}

// TestVictimOrderPinnedAcrossEvictionAndShed is the satellite-3 table test:
// with epoch 1 quorum-held and epoch 2 a plain shed candidate, ring eviction
// and the ShedOldest budget path must pick the SAME victim — the oldest
// non-held epoch — and the per-epoch ledger (buffered + shed/dropped =
// ingested) must balance either way. Before the victim choice was unified,
// eviction spared the held window while shedding took it, so the two paths
// disagreed about which epoch survived the same pressure.
func TestVictimOrderPinnedAcrossEvictionAndShed(t *testing.T) {
	// seed puts routers 0,1 into epoch 1 (below the quorum of 3, with live
	// router 2 missing → held) and routers 0,1,2 into epoch 2 (at quorum).
	seed := func(c *Center) {
		for r := 0; r < 2; r++ {
			c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: smallBitmap(uint64(10 + r))})
		}
		for r := 0; r < 3; r++ {
			c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 2, Bitmap: smallBitmap(uint64(20 + r))})
		}
	}

	t.Run("Eviction", func(t *testing.T) {
		c := New(Config{Analysis: AnalysisBatch, MaxEpochs: 2, MinRouters: 3, MaxWait: 4})
		seed(c)
		if q := c.Quorum(1); !q.Hold {
			t.Fatalf("epoch 1 not held: %+v (test premise broken)", q)
		}
		c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 3, Bitmap: smallBitmap(30)})
		if got := c.Epochs(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Fatalf("buffered %v, want [1 3]: eviction must take the oldest NON-HELD epoch (2), not the held 1", got)
		}
		s := c.Stats()
		if s.EpochsEvicted.Load() != 1 || s.DroppedDigests.Load() != 3 {
			t.Fatalf("evicted=%d dropped=%d, want 1 epoch / 3 digests", s.EpochsEvicted.Load(), s.DroppedDigests.Load())
		}
		a, u := c.Pending()
		if int64(a+u)+s.DroppedDigests.Load() != s.DigestsIngested.Load() {
			t.Fatalf("ledger broken: buffered %d + dropped %d != ingested %d", a+u, s.DroppedDigests.Load(), s.DigestsIngested.Load())
		}
		// The mid-ring victim is tombstoned: a straggler cannot reopen it.
		c.Ingest(transport.AlignedDigest{RouterID: 9, Epoch: 2, Bitmap: smallBitmap(99)})
		if got := c.Stats().LateDigests.Load(); got != 1 {
			t.Fatalf("straggler into evicted epoch: late=%d, want 1", got)
		}
	})

	t.Run("Shed", func(t *testing.T) {
		budget := digestCost() * 5 // holds the 5 seeded digests, not a 6th
		c := New(Config{Analysis: AnalysisBatch, MaxEpochs: 8, MinRouters: 3, MaxWait: 4,
			MemoryBudgetBytes: budget, Shedding: ShedOldest})
		seed(c)
		if q := c.Quorum(1); !q.Hold {
			t.Fatalf("epoch 1 not held: %+v (test premise broken)", q)
		}
		c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 3, Bitmap: smallBitmap(30)})
		if got := c.Epochs(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Fatalf("buffered %v, want [1 3]: shedding must take the oldest NON-HELD epoch (2), same victim as eviction", got)
		}
		s := c.Stats()
		if s.ShedEpochs.Load() != 1 || s.ShedDigests.Load() != 3 {
			t.Fatalf("shed epochs=%d digests=%d, want 1/3", s.ShedEpochs.Load(), s.ShedDigests.Load())
		}
		a, u := c.Pending()
		if int64(a+u)+s.ShedDigests.Load() != s.DigestsIngested.Load() {
			t.Fatalf("ledger broken: buffered %d + shed %d != ingested %d", a+u, s.ShedDigests.Load(), s.DigestsIngested.Load())
		}
		reps := c.TakeShedReports()
		if len(reps) != 1 || reps[0].Epoch != 2 || !reps[0].Shed || reps[0].ShedDigests != 3 {
			t.Fatalf("shed tombstones %+v, want one honest report for epoch 2", reps)
		}
	})

	t.Run("AllHeld", func(t *testing.T) {
		// When every candidate is held, memory pressure still wins: the
		// overall oldest goes, because a refused shed would OOM.
		budget := digestCost() * 2
		c := New(Config{Analysis: AnalysisBatch, MaxEpochs: 8, MinRouters: 3, MaxWait: 8,
			MemoryBudgetBytes: budget, Shedding: ShedOldest})
		for r := 0; r < 2; r++ {
			c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: smallBitmap(uint64(10 + r))})
		}
		// Router 2 reports only into epoch 2, making it live and missing from
		// epoch 1 → epoch 1 held; its own epoch 2 is below quorum with 0 and 1
		// missing → also held.
		c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 2, Bitmap: smallBitmap(22)})
		c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 3, Bitmap: smallBitmap(30)})
		s := c.Stats()
		if s.ShedEpochs.Load() == 0 {
			t.Fatal("nothing shed with every epoch held: budget must outrank the quorum gate")
		}
		if got := c.Epochs(); got[0] == 1 {
			t.Fatalf("buffered %v: with all candidates held the overall oldest (1) must go first", got)
		}
	})
}
