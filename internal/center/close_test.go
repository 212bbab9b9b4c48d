package center

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dcstream/internal/transport"
)

// closeStep is one step of a close-policy scenario: digests arrive, the
// quiescence clock may tick, more digests may land after the tick, and then
// CloseNext runs under the step's trigger until it refuses.
type closeStep struct {
	feed    []transport.Message
	tick    bool
	mid     []transport.Message // land between Tick and the first CloseNext
	trigger CloseCause
	// want is every close the step makes — "epoch cause", with " degraded"
	// when below quorum — then the refusal: "open", or "held epoch tick/max".
	want []string
}

// closeNextAll runs CloseNext under trigger until it refuses, and describes
// what it did as closeStep.want does.
func closeNextAll(t *testing.T, c *Center, trigger CloseCause) []string {
	t.Helper()
	var got []string
	for {
		rep, cause, err := c.CloseNext(trigger)
		var held *HeldError
		switch {
		case errors.As(err, &held):
			if !errors.Is(err, ErrNoCompleteEpoch) {
				t.Fatalf("a hold is not ErrNoCompleteEpoch: %v", err)
			}
			return append(got, fmt.Sprintf("held %d %d/%d", held.Epoch, held.Tick, held.MaxWait))
		case errors.Is(err, ErrNoCompleteEpoch):
			return append(got, "open")
		case err != nil:
			t.Fatalf("CloseNext(%v): %v", trigger, err)
		}
		s := fmt.Sprintf("%d %v", rep.Epoch, cause)
		if rep.Degraded {
			s += " degraded"
		}
		got = append(got, s)
	}
}

func burst(epoch int, routers ...int) []transport.Message {
	var out []transport.Message
	for _, r := range routers {
		out = append(out, alignedMsg(r, epoch))
	}
	return out
}

// TestCloseNextPolicy drives the close policy through Ingest, Tick and
// CloseNext alone, one scenario per row of DESIGN §14's rule table.
func TestCloseNextPolicy(t *testing.T) {
	quorum := Config{MinRouters: 3, MaxWait: 2}
	cases := []struct {
		name  string
		cfg   Config
		steps []closeStep
		late  int64 // LateDigests at the end
	}{
		{
			name: "nothing open: every trigger refuses",
			steps: []closeStep{
				{trigger: CloseComplete, want: []string{"open"}},
				{tick: true, trigger: CloseQuiescent, want: []string{"open"}},
				{trigger: CloseDrain, want: []string{"open"}},
			},
		},
		{
			name: "superseded and not held: closed under every trigger",
			steps: []closeStep{
				{feed: append(burst(1, 1, 2), burst(2, 1)...), trigger: CloseComplete, want: []string{"1 superseded", "open"}},
				{feed: burst(3, 1), tick: true, trigger: CloseQuiescent, want: []string{"2 superseded", "open"}},
				{feed: burst(4, 1), trigger: CloseDrain, want: []string{"3 superseded", "4 drain", "open"}},
			},
		},
		{
			name: "complete and not held: the wake closes it, and only the wake",
			steps: []closeStep{
				{feed: burst(1, 1, 2), trigger: CloseComplete, want: []string{"open"}}, // the first epoch expects nobody
				{feed: burst(2, 1, 2), tick: true, trigger: CloseQuiescent, want: []string{"1 superseded", "open"}},
				{trigger: CloseComplete, want: []string{"2 complete", "open"}},
			},
		},
		{
			// Router 3 registers through a late epoch-1 digest after epoch 2
			// opened without expecting it: epoch 2 completes, below quorum.
			name: "complete but held: the wake leaves it to the ticks",
			cfg:  quorum,
			steps: []closeStep{
				{feed: append(append(burst(1, 1, 2), burst(2, 1)...), burst(1, 3)...), trigger: CloseComplete, want: []string{"1 superseded", "open"}},
				{feed: burst(2, 2), trigger: CloseComplete, want: []string{"open"}},
			},
		},
		{
			name: "stored since the previous Tick: still filling",
			steps: []closeStep{
				{feed: burst(1, 1), tick: true, trigger: CloseQuiescent, want: []string{"open"}},
				{feed: burst(1, 2), tick: true, trigger: CloseQuiescent, want: []string{"open"}},
				{tick: true, trigger: CloseQuiescent, want: []string{"1 quiescent", "open"}},
			},
		},
		{
			// The one interleaving left: epoch 2's first digest lands after the
			// tick advanced the clock and before CloseNext. Epoch 1 closes;
			// epoch 2 fills on, and its second digest is not late.
			name: "a digest landing between Tick and CloseNext",
			steps: []closeStep{
				{feed: burst(1, 1, 2), tick: true, trigger: CloseQuiescent, want: []string{"open"}},
				{tick: true, mid: burst(2, 1), trigger: CloseQuiescent, want: []string{"1 superseded", "open"}},
				{feed: burst(2, 2), tick: true, trigger: CloseQuiescent, want: []string{"open"}},
				{tick: true, trigger: CloseQuiescent, want: []string{"2 quiescent", "open"}},
			},
		},
		{
			name: "quiescent and held: a tick counted per tick, then Degraded once MaxWait ticks are used",
			cfg:  quorum,
			steps: []closeStep{
				{feed: append(burst(1, 1, 2, 3), burst(2, 1, 2)...), trigger: CloseComplete, want: []string{"1 superseded", "open"}},
				{tick: true, trigger: CloseQuiescent, want: []string{"open"}},
				{tick: true, trigger: CloseQuiescent, want: []string{"held 2 1/2"}},
				{trigger: CloseComplete, want: []string{"open"}}, // a wake counts no held tick
				{tick: true, trigger: CloseQuiescent, want: []string{"held 2 2/2"}},
				{tick: true, trigger: CloseQuiescent, want: []string{"2 quiescent degraded", "open"}},
			},
		},
		{
			name: "quiescent and not held: the tick closes it",
			cfg:  quorum,
			steps: []closeStep{
				{feed: burst(1, 1, 2, 3), tick: true, trigger: CloseQuiescent, want: []string{"open"}},
				{tick: true, trigger: CloseQuiescent, want: []string{"1 quiescent", "open"}},
			},
		},
		{
			name: "the drain closes what is held or filling, oldest first",
			cfg:  quorum,
			steps: []closeStep{
				{feed: append(append(burst(1, 1, 2, 3), burst(2, 1, 2)...), burst(3, 1, 2, 3)...), trigger: CloseDrain,
					want: []string{"1 superseded", "2 drain degraded", "3 drain", "open"}},
			},
		},
		{
			// A shard buffers context epochs for spans another shard reports;
			// complete or not, they are not this center's to close.
			name: "spans owned elsewhere are skipped",
			cfg:  Config{WindowSlide: 2, OwnsSpan: func(e int) bool { return e%2 == 0 }},
			steps: []closeStep{
				{feed: append(append(append(burst(1, 1, 2), burst(2, 1, 2)...), burst(3, 1, 2)...), burst(4, 1, 2)...),
					trigger: CloseComplete, want: []string{"2 superseded", "4 complete", "open"}},
				{feed: burst(5, 1, 2), trigger: CloseDrain, want: []string{"open"}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.SubsetSize = 64
			c := New(cfg)
			for i, st := range tc.steps {
				c.Ingest(st.feed...)
				if st.tick {
					c.Tick()
				}
				c.Ingest(st.mid...)
				if got := closeNextAll(t, c, st.trigger); !reflect.DeepEqual(got, st.want) {
					t.Fatalf("step %d: %v", i+1, got)
				}
			}
			if late := c.Stats().LateDigests.Load(); late != tc.late {
				t.Fatalf("%d digests late, want %d", late, tc.late)
			}
		})
	}
}

// TestCloseNextSeededFleets interleaves Ingest, Tick and CloseNext under
// random triggers over seeded fleets — routers of either or both kinds
// joining and leaving, digests lost, resent and delivered out of order — at
// every width and with and without a quorum. CloseNext picks its span itself,
// so it never meets a refusal of Analyze (ErrOlderSpanOpen, ErrNoWindow,
// ErrNotOwned), and the reports come out strictly ascending.
func TestCloseNextSeededFleets(t *testing.T) {
	reports := 0
	for _, slide := range []int{1, 2, 3} {
		for _, minRouters := range []int{0, 3} {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := New(Config{SubsetSize: 64, MaxEpochs: 8, TargetP1: 0.05, CoreP1: 0.2, WindowSlide: slide, MinRouters: minRouters})
				last := 0
				closeSome := func(trigger CloseCause) {
					for {
						rep, _, err := c.CloseNext(trigger)
						if errors.Is(err, ErrOlderSpanOpen) || errors.Is(err, ErrNoWindow) || errors.Is(err, ErrNotOwned) {
							t.Fatalf("slide %d min-routers %d seed %d: CloseNext refused like Analyze: %v", slide, minRouters, seed, err)
						}
						if errors.Is(err, ErrNoCompleteEpoch) {
							return
						}
						if rep.Epoch <= last {
							t.Fatalf("slide %d min-routers %d seed %d: span %d reported after span %d", slide, minRouters, seed, rep.Epoch, last)
						}
						last = rep.Epoch
						reports++
					}
				}
				kinds := make([]int, 3+rng.Intn(5)) // per router: 0 aligned, 1 unaligned, 2 both
				for r := range kinds {
					kinds[r] = rng.Intn(3)
				}
				for e := 1; e <= 12; e++ {
					var msgs []transport.Message
					for r, kind := range kinds {
						if rng.Intn(6) == 0 {
							continue // silent this epoch
						}
						if kind != 1 {
							msgs = append(msgs, alignedMsg(r, e))
						}
						if kind != 0 {
							msgs = append(msgs, unalignedMsg(r, e))
						}
					}
					if rng.Intn(4) == 0 && len(msgs) > 0 {
						msgs = append(msgs, msgs[rng.Intn(len(msgs))]) // resent
					}
					rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
					for _, m := range msgs {
						c.Ingest(m)
						switch rng.Intn(8) {
						case 0:
							c.Tick()
						case 1:
							closeSome(CloseComplete)
						case 2:
							closeSome(CloseQuiescent)
						}
					}
					c.Tick()
					closeSome(CloseQuiescent)
				}
				closeSome(CloseDrain)
				if left := c.Epochs(); slide == 1 && len(left) != 0 {
					t.Fatalf("slide 1 seed %d: epochs %v buffered after the drain", seed, left)
				}
			}
		}
	}
	if reports < 1000 {
		t.Fatalf("only %d spans reported across the fleets", reports)
	}
}
