package daemon

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dcstream/internal/center"
	"dcstream/internal/transport"
)

// TestSpansCloseInOrder is the center's table of the same name through the
// close policy: routers 1–3 report epochs 1–5 under a quorum of the whole
// fleet and MaxWait 8, router 3's epoch-3 digest arrives after epochs 4 and
// 5, and two ticks follow every burst. A node whose loop also wakes on
// completion and a node that only ticks each report spans 1–5 once, in
// ascending order, at every width; the straggler lands in span 3 and is not
// late.
func TestSpansCloseInOrder(t *testing.T) {
	feeds := [][]transport.Message{burst(1, 1, 2, 3), burst(2, 1, 2, 3), burst(3, 1, 2), burst(4, 1, 2, 3), burst(5, 1, 2, 3), burst(3, 3)}
	for _, slide := range []int{1, 2, 3} {
		for _, wakes := range []bool{true, false} {
			t.Run(fmt.Sprintf("slide=%d/wakes=%v", slide, wakes), func(t *testing.T) {
				n := NewNode(center.Config{SubsetSize: 64, MinRouters: 3, MaxWait: 8, WindowSlide: slide, MaxEpochs: 8}, nil)
				var reps []center.WindowReport
				collect := func(got []center.WindowReport, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					reps = append(reps, got...)
				}
				for _, feed := range feeds {
					for _, m := range feed {
						n.Handle(m, from)
					}
					if poked(n) && wakes {
						collect(n.Wake())
					}
					collect(n.Tick())
					collect(n.Tick())
				}
				collect(n.Drain())
				var got []int
				for _, rep := range reps {
					got = append(got, rep.Epoch)
				}
				if want := []int{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
					t.Fatalf("spans reported %v, want %v", got, want)
				}
				if late := n.Center.Stats().LateDigests.Load(); late != 0 {
					t.Fatalf("%d digests counted late, want 0", late)
				}
				if span3 := reps[2]; span3.Degraded || len(span3.MissingRouters) != 0 {
					t.Fatalf("span 3 closed without the straggler: %+v", span3)
				}
			})
		}
	}
}

// TestSeededFleetsReportInOrder runs TestCompletionEquivalentToTicks's seeded
// fleets under a quorum at every width W in {1, 2, 3} and MaxWait in {2, 8}.
// On both nodes the reports are strictly ascending by epoch, and every epoch
// that received a digest has its span reported, or is counted in
// EpochsEvicted or ShedEpochs: quorum holds delay a span, never lose it.
func TestSeededFleetsReportInOrder(t *testing.T) {
	for _, slide := range []int{1, 2, 3} {
		for _, maxWait := range []int{2, 8} {
			t.Run(fmt.Sprintf("slide=%d/max-wait=%d", slide, maxWait), func(t *testing.T) {
				for seed := int64(1); seed <= 40; seed++ {
					cfg := fleetConfig()
					cfg.WindowSlide, cfg.MaxWait, cfg.MinRouters = slide, maxWait, 3
					woken, ticked, got, want := playFleet(t, seed, cfg)
					var received []int
					for i, b := range fleetStream(rand.New(rand.NewSource(seed)), 12) {
						if len(b) > 0 {
							received = append(received, i+1)
						}
					}
					for _, side := range []struct {
						name string
						n    *Node
						reps []center.WindowReport
					}{{"woken", woken, got}, {"ticked", ticked, want}} {
						reported := map[int]bool{}
						for i, rep := range side.reps {
							if i > 0 && rep.Epoch <= side.reps[i-1].Epoch {
								t.Fatalf("seed %d: the %s node reported out of order: %v", seed, side.name, describeAll(side.reps))
							}
							reported[rep.Epoch] = true
						}
						lost := 0
						for _, e := range received {
							if !reported[e] {
								lost++
							}
						}
						s := side.n.Center.Stats()
						if int64(lost) > s.EpochsEvicted.Load()+s.ShedEpochs.Load() {
							t.Fatalf("seed %d: the %s node reported %v: %d spans of epochs with digests never reported, %d evicted, %d shed",
								seed, side.name, describeAll(side.reps), lost, s.EpochsEvicted.Load(), s.ShedEpochs.Load())
						}
					}
				}
			})
		}
	}
}

// TestTickNeverClosesAnEpochItDidNotCount replays the interleaving a tick
// must survive, since ingest runs concurrently: epoch 2's first digest lands
// in the middle of the tick that closes the quiescent epoch 1, while epoch 1's
// report is being finished. Epoch 2 is left to fill, and its second digest
// lands in its own report, not late.
func TestTickNeverClosesAnEpochItDidNotCount(t *testing.T) {
	n := NewNode(center.Config{SubsetSize: 64}, nil)
	for _, m := range burst(1, 1, 2) {
		n.Handle(m, from)
	}
	if reps, err := n.Tick(); err != nil || len(reps) != 0 {
		t.Fatalf("first tick: %v, %v; want nothing closed", describeAll(reps), err)
	}
	n.push = sendFunc(func() { n.Handle(dg(1, 2), from) })
	reps, err := n.Tick()
	if err != nil || len(reps) != 1 || reps[0].Epoch != 1 {
		t.Fatalf("racing tick reported %v, %v; want epoch 1 alone", describeAll(reps), err)
	}
	n.push = nil
	n.Handle(dg(2, 2), from)
	for range 2 {
		got, err := n.Tick()
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, got...)
	}
	if len(reps) != 2 || reps[1].Epoch != 2 || reps[1].Routers != 2 {
		t.Fatalf("reported %v, want epoch 2 from both routers after epoch 1", describeAll(reps))
	}
	if late := n.Center.Stats().LateDigests.Load(); late != 0 {
		t.Fatalf("%d digests counted late, want 0", late)
	}
}

// TestDrainReportsPastAFailedSink: the event log fails on span 2's line while
// span 2 was held below quorum behind span 1. The drain reports the fault,
// naming the span, and still reports spans 2 and 3: a sink's fault costs
// that sink one line, never another span its report.
func TestDrainReportsPastAFailedSink(t *testing.T) {
	n := NewNode(center.Config{SubsetSize: 64, MinRouters: 3, MaxWait: 8}, nil)
	n.events = newEventLog(lineFailer(`{"epoch":2,`))
	feed := burst(1, 1, 2, 3)
	feed = append(feed, dg(1, 2), dg(2, 2), ug(1, 2), ug(2, 2))
	for _, m := range append(feed, burst(3, 1, 2, 3)...) {
		n.Handle(m, from)
	}
	reps, err := n.Drain()
	if err == nil || !strings.Contains(err.Error(), "events: epoch 2") {
		t.Fatalf("drain fault %v, want span 2's event line refused", err)
	}
	var got []int
	for _, rep := range reps {
		got = append(got, rep.Epoch)
	}
	if want := []int{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("drain reported %v, want %v", describeAll(reps), want)
	}
}

// lineFailer is an event sink that refuses every line holding its text.
type lineFailer string

func (w lineFailer) Write(p []byte) (int, error) {
	if strings.Contains(string(p), string(w)) {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}
