package center

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"dcstream/internal/transport"
)

// orderDigest is router r's aligned digest for epoch e.
func orderDigest(r, e int) transport.Message {
	return transport.AlignedDigest{RouterID: r, Epoch: e, Bitmap: smallBitmap(uint64(1000*e + r))}
}

// closeSuperseded closes spans through AnalyzeLatestComplete until it has
// none to give.
func closeSuperseded(t *testing.T, c *Center) []WindowReport {
	t.Helper()
	var reps []WindowReport
	for {
		rep, err := c.AnalyzeLatestComplete()
		if errors.Is(err, ErrNoCompleteEpoch) {
			return reps
		}
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
}

// TestSpansCloseInOrder: routers 1–3 report epochs 1–5 under a quorum of the
// whole fleet and MaxWait 8, except that router 3's epoch-3 digest arrives
// after epochs 4 and 5. Closing through AnalyzeLatestComplete before and after
// the straggler reports spans 1–4 once each, in ascending order, at every
// width; the straggler lands in span 3, which closes whole, and is not late.
func TestSpansCloseInOrder(t *testing.T) {
	for _, slide := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("slide=%d", slide), func(t *testing.T) {
			c := New(Config{MinRouters: 3, MaxWait: 8, WindowSlide: slide, MaxEpochs: 8})
			for e := 1; e <= 5; e++ {
				for r := 1; r <= 3; r++ {
					if e != 3 || r != 3 {
						c.Ingest(orderDigest(r, e))
					}
				}
			}
			reps := closeSuperseded(t, c)
			c.Ingest(orderDigest(3, 3))
			reps = append(reps, closeSuperseded(t, c)...)
			var got []int
			for _, rep := range reps {
				got = append(got, rep.Epoch)
			}
			if want := []int{1, 2, 3, 4}; !slices.Equal(got, want) {
				t.Fatalf("spans reported %v, want %v", got, want)
			}
			if late := c.Stats().LateDigests.Load(); late != 0 {
				t.Fatalf("%d digests counted late, want 0", late)
			}
			span3 := reps[2]
			if span3.Degraded || len(span3.MissingRouters) != 0 || span3.Aligned == nil || span3.Aligned.Routers != 3*len(span3.SpanEpochs) {
				t.Fatalf("span 3 closed without the straggler: %+v", span3)
			}
		})
	}
}

// TestEvictingReportedContextIsNotADrop: the ring evicts a buffered epoch
// whose span a report already holds — context for the spans ahead — or one
// whose span is unreported. Only the second is a drop: over the whole run the
// ledger sent = digests in reports (each epoch's counted once) + late +
// dropped balances, and EpochsEvicted counts only unreported epochs. Reported
// context gives way first, even when the quorum gate would hold its epoch.
func TestEvictingReportedContextIsNotADrop(t *testing.T) {
	const routers = 2
	cases := []struct {
		name    string
		cfg     Config
		plan    []int // an epoch to feed from every router, 0: close what is superseded, -1: drain one span
		partial int   // an epoch in plan that only router 1 sends
		evicted int64
	}{
		{
			// Spans 1–3 are reported; epoch 2 is context for spans 4 and 5
			// when epoch 6 needs its slot.
			name:    "a reported context epoch",
			cfg:     Config{WindowSlide: 3, MaxEpochs: 4},
			plan:    []int{1, 2, 3, 4, 0, 5, 6},
			evicted: 0,
		},
		{
			name:    "an unreported epoch",
			cfg:     Config{WindowSlide: 3, MaxEpochs: 4},
			plan:    []int{1, 2, 3, 4, 5},
			evicted: 1,
		},
		{
			name:    "an unreported epoch at -slide 1",
			cfg:     Config{MaxEpochs: 2},
			plan:    []int{1, 2, 3},
			evicted: 1,
		},
		{
			// Span 2 is drained below quorum; its epoch 2 stays as context
			// for span 3 with router 2 still missing. Epoch 5 takes the slot
			// of that context, not of the unreported, full epoch 3.
			name:    "a reported context epoch the quorum gate would hold",
			cfg:     Config{WindowSlide: 2, MinRouters: 2, MaxWait: 8, MaxEpochs: 3},
			plan:    []int{1, 2, 0, -1, 3, 4, 5},
			partial: 2,
			evicted: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg)
			sent := map[int]int{}
			var reps []WindowReport
			for _, e := range tc.plan {
				switch {
				case e == 0:
					reps = append(reps, closeSuperseded(t, c)...)
					continue
				case e < 0:
					rep, _, err := c.CloseNext(CloseDrain)
					if err != nil {
						t.Fatal(err)
					}
					reps = append(reps, rep)
					continue
				}
				for r := 1; r <= routers; r++ {
					if e != tc.partial || r == 1 {
						c.Ingest(orderDigest(r, e))
						sent[e]++
					}
				}
			}
			reps = append(reps, closeSuperseded(t, c)...)
			for _, e := range c.Epochs() {
				rep, err := c.Analyze(e)
				if errors.Is(err, ErrNoWindow) {
					continue // context of a span already reported
				}
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, rep)
			}
			inReports := map[int]bool{}
			reported := 0
			for _, rep := range reps {
				for _, e := range rep.SpanEpochs {
					if !inReports[e] {
						inReports[e] = true
						reported += sent[e]
					}
				}
			}
			total := 0
			for _, n := range sent {
				total += n
			}
			s := c.Stats()
			if got := reported + int(s.LateDigests.Load()+s.DroppedDigests.Load()); got != total {
				t.Fatalf("sent %d != in reports %d + late %d + dropped %d", total, reported, s.LateDigests.Load(), s.DroppedDigests.Load())
			}
			if s.EpochsEvicted.Load() != tc.evicted {
				t.Fatalf("%d epochs counted evicted, want %d", s.EpochsEvicted.Load(), tc.evicted)
			}
		})
	}
}
