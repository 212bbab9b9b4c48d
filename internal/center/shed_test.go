package center

import (
	"errors"
	"testing"

	"dcstream/internal/transport"
)

// digestCost is the byte-accounted price of one smallBitmap aligned digest,
// computed the same way admission computes it so budgets in these tests can
// be expressed in digests.
func digestCost() int64 {
	return retainedBytes(transport.AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: smallBitmap(1)})
}

// TestShedOldestUnderBudget: with a budget of ~one epoch's digests and the
// default ShedOldest policy, filling newer epochs sheds the oldest whole —
// tombstoned, counted, and reported — while the newest epoch stays complete
// and the byte ledger balances.
func TestShedOldestUnderBudget(t *testing.T) {
	const perEpoch = 4
	budget := digestCost() * (perEpoch + 1) // room for one epoch, not two
	// Batch mode: these tests express budgets in digest bytes; the
	// incremental accumulator's footprint has its own regression test
	// (TestBudgetCountsAccumulatorBytes).
	c := New(Config{Analysis: AnalysisBatch, MemoryBudgetBytes: budget, Shedding: ShedOldest, MaxEpochs: 8})
	for epoch := 1; epoch <= 3; epoch++ {
		for r := 0; r < perEpoch; r++ {
			c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: epoch, Bitmap: smallBitmap(uint64(epoch*10 + r))})
		}
	}
	s := c.Stats()
	if s.ShedEpochs.Load() != 2 || s.ShedDigests.Load() != 2*perEpoch {
		t.Fatalf("shed epochs=%d digests=%d, want 2 epochs / %d digests", s.ShedEpochs.Load(), s.ShedDigests.Load(), 2*perEpoch)
	}
	if s.RejectedDigests.Load() != 0 {
		t.Fatalf("ShedOldest rejected %d digests with sheddable epochs available", s.RejectedDigests.Load())
	}
	if got := c.BufferedBytes(); got > budget {
		t.Fatalf("buffered %d bytes over the %d budget", got, budget)
	}
	// Ledger: everything ingested is buffered or shed; nothing vanished.
	if s.DigestsIngested.Load() != 3*perEpoch {
		t.Fatalf("ingested %d, want %d (admission happens before the ingested ledger)", s.DigestsIngested.Load(), 3*perEpoch)
	}
	a, u := c.Pending()
	if int64(a+u)+s.ShedDigests.Load() != s.DigestsIngested.Load() {
		t.Fatalf("ledger broken: buffered %d + shed %d != ingested %d", a+u, s.ShedDigests.Load(), s.DigestsIngested.Load())
	}

	// The tombstone reports name the shed epochs, oldest first, with honest
	// digest counts and the Degraded+Shed marking.
	reps := c.TakeShedReports()
	if len(reps) != 2 || reps[0].Epoch != 1 || reps[1].Epoch != 2 {
		t.Fatalf("shed reports %+v, want epochs 1 and 2", reps)
	}
	for _, rep := range reps {
		if !rep.Shed || !rep.Degraded || rep.ShedDigests != perEpoch || rep.Routers != perEpoch {
			t.Fatalf("shed report %+v lacks Shed/Degraded/counts", rep)
		}
		if rep.Aligned != nil || rep.Unaligned != nil {
			t.Fatalf("shed report %+v carries an analysis for digests that were dropped", rep)
		}
	}
	if again := c.TakeShedReports(); len(again) != 0 {
		t.Fatalf("TakeShedReports not drained: %+v", again)
	}

	// Shed epochs are tombstoned: a straggler for epoch 1 is late, never a
	// silent reopen.
	c.Ingest(transport.AlignedDigest{RouterID: 9, Epoch: 1, Bitmap: smallBitmap(99)})
	if got := c.Stats().LateDigests.Load(); got != 1 {
		t.Fatalf("straggler into a shed epoch: late=%d, want 1", got)
	}
	// The surviving epoch analyzes complete and un-degraded.
	rep, err := c.Analyze(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed || rep.Degraded || rep.Routers != perEpoch {
		t.Fatalf("survivor epoch report %+v, want complete and clean", rep)
	}
}

// TestAnalyzeShedEpochReturnsTombstone: Analyze on a shed epoch hands out
// the tombstone report (once) instead of ErrNoWindow — the caller learns the
// epoch was sacrificed, not that it never existed.
func TestAnalyzeShedEpochReturnsTombstone(t *testing.T) {
	budget := digestCost() * 2
	c := New(Config{Analysis: AnalysisBatch, MemoryBudgetBytes: budget, MaxEpochs: 8})
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: smallBitmap(1)})
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 2, Bitmap: smallBitmap(2)})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 2, Bitmap: smallBitmap(3)})
	rep, err := c.Analyze(1)
	if err != nil {
		t.Fatalf("Analyze(shed epoch) = %v, want its tombstone report", err)
	}
	if !rep.Shed || !rep.Degraded || rep.ShedDigests != 1 {
		t.Fatalf("tombstone report %+v", rep)
	}
	if _, err := c.Analyze(1); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("second Analyze of a handed-out tombstone = %v, want ErrNoWindow", err)
	}
	if reps := c.TakeShedReports(); len(reps) != 0 {
		t.Fatalf("Analyze left the tombstone behind: %+v", reps)
	}
}

// TestRejectNewUnderBudget: the RejectNew policy refuses incoming digests at
// the budget line, preserves every buffered epoch, and marks the affected
// window's report Degraded with the rejection count.
func TestRejectNewUnderBudget(t *testing.T) {
	budget := digestCost() * 3
	c := New(Config{Analysis: AnalysisBatch, MemoryBudgetBytes: budget, Shedding: RejectNew, MaxEpochs: 8})
	for r := 0; r < 3; r++ {
		c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: smallBitmap(uint64(r))})
	}
	// Over budget: both a new digest for epoch 1 and one opening epoch 2
	// are refused; nothing buffered is touched.
	c.Ingest(transport.AlignedDigest{RouterID: 7, Epoch: 1, Bitmap: smallBitmap(7)})
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 2, Bitmap: smallBitmap(8)})
	s := c.Stats()
	if s.RejectedDigests.Load() != 2 || s.ShedEpochs.Load() != 0 || s.DigestsIngested.Load() != 3 {
		t.Fatalf("rejected=%d shed=%d ingested=%d, want 2/0/3", s.RejectedDigests.Load(), s.ShedEpochs.Load(), s.DigestsIngested.Load())
	}
	// A same-size DupKeepLast resend costs no new bytes and is still
	// admitted at the budget line.
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: smallBitmap(100)})
	if s := c.Stats(); s.ReplacedDigests.Load() != 1 {
		t.Fatalf("zero-delta replacement refused under RejectNew: %d replaced, %d rejected", s.ReplacedDigests.Load(), s.RejectedDigests.Load())
	}

	rep, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.RejectedDigests != 1 || rep.Routers != 3 {
		t.Fatalf("report %+v, want Degraded with RejectedDigests=1 over 3 routers", rep)
	}
	// Epoch 2 remembers it refused a digest: even after the budget frees up
	// and it fills normally, its report stays Degraded with the rejection
	// on the books — the analysis ran on an incomplete window.
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 2, Bitmap: smallBitmap(9)})
	rep2, err := c.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Degraded || rep2.RejectedDigests != 1 || rep2.Routers != 1 {
		t.Fatalf("epoch 2 report %+v, want Degraded with its 1 rejection remembered", rep2)
	}
}

// TestEvictionLoopBoundaries is the satellite regression table: the ring
// bound at its edge values (0 defaults, to W+1 past W=3; exactly 1 works; a
// negative one is refused, TestConfigValidate) and a ring of one while the quorum gate holds
// windows open — the eviction loop must converge in every case, never spin or
// index an empty ring.
func TestEvictionLoopBoundaries(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"configured zero defaults", func(t *testing.T) {
			c := New(Config{})
			for e := 1; e <= 10; e++ {
				c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: e, Bitmap: smallBitmap(uint64(e))})
			}
			if got := len(c.Epochs()); got != 4 {
				t.Fatalf("default ring holds %d epochs, want 4", got)
			}
		}},
		{"configured zero derives W+1 past 3", func(t *testing.T) {
			c := New(Config{WindowSlide: 4})
			for e := 1; e <= 10; e++ {
				c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: e, Bitmap: smallBitmap(uint64(e))})
			}
			if got := len(c.Epochs()); got != 5 {
				t.Fatalf("ring at WindowSlide 4 holds %d epochs, want 5", got)
			}
		}},
		{"exactly one", func(t *testing.T) {
			c := New(Config{MaxEpochs: 1})
			for e := 1; e <= 3; e++ {
				c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: e, Bitmap: smallBitmap(uint64(e))})
			}
			s := c.Stats()
			if got := c.Epochs(); len(got) != 1 || got[0] != 3 || s.EpochsEvicted.Load() != 2 {
				t.Fatalf("ring of one: epochs %v, evicted %d", got, s.EpochsEvicted.Load())
			}
		}},
		{"shrink while quorum-held", func(t *testing.T) {
			// Quorum (MinRouters 3, one reporter each from epoch 2 on) holds
			// every window; each new epoch must evict the held window down to
			// the bound of one and terminate.
			c := New(Config{MaxEpochs: 1, MinRouters: 3, MaxWait: 10})
			for r := 0; r < 3; r++ { // register a fleet so windows are held
				c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: smallBitmap(uint64(r))})
			}
			for e := 2; e <= 5; e++ {
				c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: e, Bitmap: smallBitmap(uint64(e))})
				if e < 5 && !c.Quorum(e).Hold {
					t.Fatalf("precondition: epoch %d not held", e)
				}
			}
			if got := c.Epochs(); len(got) != 1 || got[0] != 5 {
				t.Fatalf("ring after shrink-while-held: %v, want just epoch 5", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
