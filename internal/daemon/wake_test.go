package daemon

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// ug is router r's unaligned digest for epoch e: two groups of two sparse
// 256-bit arrays.
func ug(r, e int) transport.Message {
	seed := uint64(100000*e + 100*r)
	sparse := func() *bitvec.Vector {
		v := testBitmap(seed)
		seed++
		for i := 0; i < 2; i++ {
			v.And(v, testBitmap(seed))
			seed++
		}
		return v
	}
	d := &unaligned.Digest{RouterID: r, Rows: make([][]*bitvec.Vector, 2)}
	for g := range d.Rows {
		d.Rows[g] = []*bitvec.Vector{sparse(), sparse()}
	}
	return transport.UnalignedDigest{Epoch: e, Digest: d}
}

// burst is every router's aligned digest for one epoch.
func burst(e int, routers ...int) []transport.Message {
	var out []transport.Message
	for _, r := range routers {
		out = append(out, dg(r, e))
	}
	return out
}

// poked reports whether the center has signalled a completion since the last
// call, as Run's loop would see it.
func poked(n *Node) bool {
	select {
	case <-n.Center.Completed():
		return true
	default:
		return false
	}
}

// wakeStep is one step of a completion scenario: digests arrive, the loop
// wakes if (and only if) the center poked it, and then a window tick may fire.
type wakeStep struct {
	feed []transport.Message
	tick bool
	want []string // what the step reports: the wake's reports, then the tick's
	late int64    // LateDigests after the step
}

var wakeCases = []struct {
	name string
	cfg  center.Config
	// fit, when positive, gives the center a RejectNew memory budget that
	// holds exactly the first fit digests of the scenario.
	fit   int
	steps []wakeStep
}{
	{
		// Nobody is registered when the first window opens, so it expects
		// nobody: only the tick policy can close it.
		name: "the fleet's first epoch never completes",
		steps: []wakeStep{
			{feed: burst(1, 1, 2, 3), want: []string{}},
			{tick: true, want: []string{}},
			{tick: true, want: []string{"1"}},
		},
	},
	{
		// Router 3 sends aligned digests only. Counting routers, epoch 2 would
		// look whole when router 3's first digest lands; it is whole one
		// unaligned digest later.
		name: "an aligned-only router beside both-kind routers: complete on the true last digest",
		steps: []wakeStep{
			{feed: []transport.Message{dg(1, 1), ug(1, 1), dg(2, 1), ug(2, 1), dg(3, 1)}, want: []string{}},
			{feed: []transport.Message{dg(1, 2), dg(2, 2), dg(3, 2), ug(1, 2)}, want: []string{}},
			{feed: []transport.Message{ug(2, 2)}, want: []string{"1", "2"}},
		},
	},
	{
		// Router 3 is new in epoch 2 and lands after the epoch completed
		// without it: late, but registered — epoch 3 waits for it. Router 4 is
		// new in epoch 4 and lands before the last expected digest: it is in.
		name: "a new router's first epoch: late if it lands after completion, expected from the next",
		steps: []wakeStep{
			{feed: burst(1, 1, 2), want: []string{}},
			{feed: burst(2, 1, 2), want: []string{"1", "2"}},
			{feed: burst(2, 3), want: []string{}, late: 1},
			{feed: burst(3, 1, 2), want: []string{}, late: 1},
			{feed: burst(3, 3), want: []string{"3"}, late: 1},
			{feed: burst(4, 1, 4, 2, 3), want: []string{"4"}, late: 1},
			{feed: burst(5, 1, 2, 3), want: []string{}, late: 1},
			{feed: burst(5, 4), want: []string{"5"}, late: 1},
		},
	},
	{
		// Router 3 goes silent after epoch 2. Epochs 3 and 4 still expect it
		// (MaxWait 2) and fall back to the tick policy and its quorum holds.
		// Epoch 5 opens on a registry that has given up on it and completes on
		// the two routers left, but epoch 4 is still held ahead of it, so its
		// wake closes only what the superseded drain finds: epoch 3, whose hold
		// the fleet has outrun. Epoch 6 lets epoch 4 out of its hold, and 4, 5
		// and 6 close in order; from epoch 7 the fast path runs alone again.
		name: "a router goes silent: ticks and quorum for MaxWait epochs, then the fast path again",
		cfg:  center.Config{MinRouters: 3, MaxWait: 2},
		steps: []wakeStep{
			{feed: burst(1, 1, 2, 3), want: []string{}},
			{feed: burst(2, 1, 2, 3), want: []string{"1", "2"}},
			{feed: burst(3, 1, 2), want: []string{}},
			{tick: true, want: []string{}},
			{tick: true, want: []string{}}, // 3 held, tick 1/2
			{feed: burst(4, 1, 2), want: []string{}},
			{tick: true, want: []string{}}, // 3 held, tick 2/2
			{feed: burst(5, 1, 2), want: []string{"3 degraded[3]"}},
			{tick: true, want: []string{}}, // 4 held, tick 1/2
			{feed: burst(6, 1, 2), want: []string{"4 degraded[3]", "5 degraded[]", "6 degraded[]"}},
			{feed: burst(7, 1, 2), want: []string{"7 degraded[]"}},
		},
	},
	{
		name: "a duplicate is not an arrival",
		steps: []wakeStep{
			{feed: burst(1, 1, 2), want: []string{}},
			{feed: burst(2, 1, 1), want: []string{}},
			{feed: burst(2, 2), want: []string{"1", "2"}},
		},
	},
	{
		// The budget holds three digests; router 2's epoch-2 digest is refused.
		// Epoch 2 is not complete and closes by quiescence, Degraded.
		name: "a digest the memory budget rejects is not an arrival",
		fit:  3,
		steps: []wakeStep{
			{feed: burst(1, 1, 2), want: []string{}},
			{feed: burst(2, 1, 2), want: []string{}},
			{tick: true, want: []string{"1"}},
			{tick: true, want: []string{"2 degraded[]"}},
			{feed: burst(3, 1, 2), want: []string{"3"}},
		},
	},
	{
		// Epoch 1 never completes; it must still close before epoch 2 does,
		// or span 2 forecloses span 1 and its report is lost (eight epochs,
		// seven events).
		name: "under -slide the superseded first epoch closes ahead of the complete ones",
		cfg:  center.Config{WindowSlide: 3, MaxEpochs: 8},
		steps: []wakeStep{
			{feed: burst(1, 1, 2), want: []string{}},
			{feed: burst(2, 1, 2), want: []string{"1", "2"}},
			{feed: burst(3, 1, 2), want: []string{"3"}},
			{feed: burst(4, 1, 2), want: []string{"4"}},
			{feed: burst(5, 1, 2), want: []string{"5"}},
			{feed: burst(6, 1, 2), want: []string{"6"}},
			{feed: burst(7, 1, 2), want: []string{"7"}},
			{feed: burst(8, 1, 2), want: []string{"8"}},
		},
	},
	{
		// Router 3's epoch-3 digest is delayed past all of epoch 4. Epoch 4 is
		// complete, but closing its span would foreclose span 3, which the
		// quorum gate still holds: the wake closes nothing. The straggler
		// completes epoch 3 and both close, in order.
		name: "under -slide a complete epoch waits behind an older quorum-held one",
		cfg:  center.Config{MinRouters: 3, MaxWait: 2, WindowSlide: 3, MaxEpochs: 8},
		steps: []wakeStep{
			{feed: burst(1, 1, 2, 3), want: []string{}},
			{feed: burst(2, 1, 2, 3), want: []string{"1", "2"}},
			{feed: burst(3, 1, 2), want: []string{}},
			{feed: burst(4, 1, 2, 3), want: []string{}},
			{feed: burst(3, 3), want: []string{"3", "4"}},
		},
	},
}

// TestWakePolicy drives the completion path on hand-fed digests: a step's
// wake runs only when the center poked the loop, so an empty want is also the
// assertion that no poke came.
func TestWakePolicy(t *testing.T) {
	for _, c := range wakeCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.SubsetSize = 64
			if c.fit > 0 {
				probe := center.New(cfg)
				fed := 0
				for _, st := range c.steps {
					for _, m := range st.feed {
						if fed < c.fit {
							probe.Ingest(m)
							fed++
						}
					}
				}
				cfg.MemoryBudgetBytes, cfg.Shedding = probe.BufferedBytes(), center.RejectNew
			}
			n := NewNode(cfg, nil)
			for i, st := range c.steps {
				got := []string{}
				for _, m := range st.feed {
					n.Handle(m, from)
					if analyzed := n.Center.Stats().EpochsAnalyzed.Load(); len(n.reps) != 0 || analyzed != int64(countReports(c.steps[:i])) {
						t.Fatalf("step %d: Handle finished a report (%d analyzed): analysis ran on the receive path", i+1, analyzed)
					}
				}
				if poked(n) {
					reps, err := n.Wake()
					if err != nil {
						t.Fatalf("step %d: wake: %v", i+1, err)
					}
					got = append(got, describeAll(reps)...)
				}
				if st.tick {
					reps, err := n.Tick()
					if err != nil {
						t.Fatalf("step %d: tick: %v", i+1, err)
					}
					got = append(got, describeAll(reps)...)
				}
				if !reflect.DeepEqual(got, st.want) {
					t.Fatalf("step %d reported %v, want %v", i+1, got, st.want)
				}
				if late := n.Center.Stats().LateDigests.Load(); late != st.late {
					t.Fatalf("step %d: %d late digests, want %d", i+1, late, st.late)
				}
			}
		})
	}
}

// countReports is how many reports the given steps are due.
func countReports(steps []wakeStep) int {
	n := 0
	for _, st := range steps {
		n += len(st.want)
	}
	return n
}

// TestCloseCauseCounters: every analyzed epoch is counted under the one rule
// that closed it.
func TestCloseCauseCounters(t *testing.T) {
	n := NewNode(center.Config{SubsetSize: 64}, nil)
	feed := func(msgs []transport.Message) {
		for _, m := range msgs {
			n.Handle(m, from)
		}
	}
	feed(burst(1, 1, 2))
	feed(burst(2, 1, 2))
	if !poked(n) {
		t.Fatal("epoch 2 is complete and the center did not poke")
	}
	n.Wake() // 1 superseded, 2 complete
	feed(burst(3, 1))
	n.Tick()
	n.Tick() // 3 quiescent: router 2 never came
	feed(burst(4, 1))
	n.Drain() // 4 by the drain
	s := n.Center.Stats()
	got := map[string]int64{}
	for cause := center.CloseComplete; cause <= center.CloseDrain; cause++ {
		got[cause.String()] = s.Closed[cause].Load()
	}
	want := map[string]int64{"complete": 1, "superseded": 1, "quiescent": 1, "drain": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("close causes %v, want %v", got, want)
	}
	if total := s.EpochsAnalyzed.Load(); total != 4 {
		t.Fatalf("%d epochs analyzed, want 4", total)
	}
}

// fleetStream is a seeded random deployment: routers of either or both kinds
// joining and leaving, digests dropped and duplicated, each epoch's burst
// shuffled.
func fleetStream(rng *rand.Rand, epochs int) [][]transport.Message {
	type router struct {
		id, join, leave    int
		aligned, unaligned bool
	}
	var fleet []router
	for id := 1; id <= 3+rng.Intn(5); id++ {
		r := router{id: id, join: 1, leave: epochs + 1}
		switch rng.Intn(4) {
		case 0:
			r.aligned = true
		case 1:
			r.unaligned = true
		default:
			r.aligned, r.unaligned = true, true
		}
		if rng.Intn(4) == 0 {
			r.join = 2 + rng.Intn(epochs-1)
		}
		if rng.Intn(4) == 0 {
			r.leave = r.join + 1 + rng.Intn(epochs)
		}
		fleet = append(fleet, r)
	}
	bursts := make([][]transport.Message, epochs)
	for e := 1; e <= epochs; e++ {
		var b []transport.Message
		add := func(m transport.Message) {
			if rng.Intn(20) == 0 {
				return // lost on the way
			}
			b = append(b, m)
			if rng.Intn(20) == 0 {
				b = append(b, m) // resent
			}
		}
		for _, r := range fleet {
			if e < r.join || e >= r.leave {
				continue
			}
			if r.aligned {
				add(dg(r.id, e))
			}
			if r.unaligned {
				add(ug(r.id, e))
			}
		}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		bursts[e-1] = b
	}
	return bursts
}

// fleetConfig is the center the seeded fleets run on. Fixed edge
// probabilities: the defaults scale with 1/vertices and leave (0,1) on fleets
// this small.
func fleetConfig() center.Config {
	return center.Config{SubsetSize: 64, MaxEpochs: 8, MaxWait: 2, TargetP1: 0.05, CoreP1: 0.2}
}

// playFleet feeds seed's fleetStream to a node whose loop wakes on completion
// and to a node that only ever ticks, and returns the two nodes and what each
// reported (fleetRun).
func playFleet(t *testing.T, seed int64, cfg center.Config) (woken, ticked *Node, got, want []center.WindowReport) {
	t.Helper()
	woken, ticked = NewNode(cfg, nil), NewNode(cfg, nil)
	got = fleetRun(t, seed, woken, true, nil)
	want = fleetRun(t, seed, ticked, false, nil)
	return woken, ticked, got, want
}

// fleetRun feeds seed's fleetStream to n: after every burst the node wakes
// if the center poked it (only when wakes is set), then ticks twice; a drain
// ends the run. It returns everything n reported; call, when not nil, sees
// each Wake ('W'), Tick ('T') and Drain ('D') with what it reported.
func fleetRun(t *testing.T, seed int64, n *Node, wakes bool, call func(op byte, reps []center.WindowReport)) []center.WindowReport {
	t.Helper()
	var all []center.WindowReport
	collect := func(op byte, reps []center.WindowReport, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if call != nil {
			call(op, reps)
		}
		all = append(all, reps...)
	}
	for _, b := range fleetStream(rand.New(rand.NewSource(seed)), 12) {
		for _, m := range b {
			n.Handle(m, from)
		}
		if wakes && poked(n) {
			reps, err := n.Wake()
			collect('W', reps, err)
		}
		for i := 0; i < 2; i++ {
			reps, err := n.Tick()
			collect('T', reps, err)
		}
	}
	reps, err := n.Drain()
	collect('D', reps, err)
	return all
}

// TestCompletionEquivalentToTicks is the "same reports, only earlier"
// property: over seeded random fleets, a node whose loop wakes on completion
// and a node that only ever ticks emit bit-identical reports in the same order
// and end with identical ledgers, whenever each burst is whole before a tick
// could close its epoch — two ticks follow every burst, so the tick-only node
// closes it before the next one begins. The bursts are atomic for the same
// reason the two limits in DESIGN §14 exist: a never-seen router or a resend
// landing after its epoch completed is late on the fast path.
func TestCompletionEquivalentToTicks(t *testing.T) {
	var fast int64
	for seed := int64(1); seed <= 40; seed++ {
		cfg := fleetConfig()
		if seed%2 == 0 {
			cfg.WindowSlide = 3
		}
		if seed%3 == 0 {
			cfg.MinRouters = 3
		}
		woken, ticked, got, want := playFleet(t, seed, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the woken node reported %v, the tick-only node %v", seed, describeAll(got), describeAll(want))
		}
		if g, w := ledger(woken.Center.Stats()), ledger(ticked.Center.Stats()); g != w {
			t.Fatalf("seed %d: ledgers differ:\n woken %s\nticked %s", seed, g, w)
		}
		if n := ticked.Center.Stats().Closed[center.CloseComplete].Load(); n != 0 {
			t.Fatalf("seed %d: the tick-only node closed %d epochs on the completion path", seed, n)
		}
		fast += woken.Center.Stats().Closed[center.CloseComplete].Load()
	}
	if fast < 100 {
		t.Fatalf("only %d epochs closed on the completion path across all seeds: the property was tested on the tick path", fast)
	}
}

// TestWakeRacesHandleAndTick runs the three entry points as Run does — Handle
// on transport goroutines, Wake and Tick on one clock goroutine — and checks
// the books afterwards: every epoch reported exactly once, every digest in
// exactly one ledger. Run it under -race.
func TestWakeRacesHandleAndTick(t *testing.T) {
	const routers, epochs = 6, 40
	n := NewNode(center.Config{SubsetSize: 64, MaxEpochs: 8}, nil)
	ticks, stop := make(chan struct{}), make(chan struct{})
	var clock sync.WaitGroup
	reported := map[int]int{}
	clock.Add(1)
	go func() {
		defer clock.Done()
		count := func(reps []center.WindowReport, err error) {
			if err != nil {
				t.Error(err)
			}
			for _, rep := range reps {
				reported[rep.Epoch]++
			}
		}
		for {
			select {
			case <-n.Center.Completed():
				count(n.Wake())
			case <-ticks:
				count(n.Tick())
			case <-stop:
				count(n.Drain())
				return
			}
		}
	}()
	// Every router is its own sender, in step per epoch like a fleet on one
	// clock, with a tick racing each epoch.
	for e := 1; e <= epochs; e++ {
		var senders sync.WaitGroup
		for r := 1; r <= routers; r++ {
			senders.Add(1)
			go func(r int) {
				defer senders.Done()
				n.Handle(dg(r, e), from)
				n.Handle(ug(r, e), from)
			}(r)
		}
		ticks <- struct{}{}
		senders.Wait()
	}
	close(stop)
	clock.Wait()
	for e := 1; e <= epochs; e++ {
		if reported[e] != 1 {
			t.Errorf("epoch %d reported %d times", e, reported[e])
		}
	}
	s := n.Center.Stats()
	if sent := int64(routers * epochs * 2); s.DigestsIngested.Load()+s.LateDigests.Load() != sent || s.DroppedDigests.Load() != 0 {
		t.Fatalf("sent %d digests, ledger %s", sent, ledger(s))
	}
	fast := n.Center.Stats().Closed[center.CloseComplete].Load()
	if fast == 0 {
		t.Fatal("no epoch closed on the completion path")
	}
	t.Logf("%d of %d epochs closed on the completion path", fast, epochs)
}
