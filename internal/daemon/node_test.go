package daemon

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcstream/internal/center"
	"dcstream/internal/transport"
)

// from is the collector address the hand-fed digests claim.
var from = &net.TCPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 7}

// dg is router r's aligned digest for epoch e.
func dg(r, e int) transport.Message {
	return transport.AlignedDigest{RouterID: r, Epoch: e, Bitmap: testBitmap(uint64(1000*e + r))}
}

// describe names a report the way the policy tables do: its epoch, plus what
// kind of close it was when not a plain one.
func describe(rep center.WindowReport) string {
	switch {
	case rep.Shed:
		return fmt.Sprintf("%d shed", rep.Epoch)
	case rep.Degraded:
		return fmt.Sprintf("%d degraded%v", rep.Epoch, rep.MissingRouters)
	}
	return fmt.Sprint(rep.Epoch)
}

func describeAll(reps []center.WindowReport) []string {
	out := []string{}
	for _, rep := range reps {
		out = append(out, describe(rep))
	}
	return out
}

// sendFunc is a report uplink that runs a function: the tests' way to make
// something happen in the middle of a tick, while a report is being finished.
type sendFunc func()

func (f sendFunc) Send(transport.Message) error { f(); return nil }

// parentPolicy is the tick body of cmd/dcsd/main.go as it stood before the
// daemon package existed, transcribed over a Node's drains: counts taken
// after the drains, closes in map order, heldTicks deleted only on the
// quiescence path. It is the "before" column of the policy table.
type parentPolicy struct{ prev, heldTicks map[int]int }

func (p *parentPolicy) tick(n *Node) ([]center.WindowReport, error) {
	n.drainShed()
	n.drainComplete()
	counts := n.Center.EpochDigests()
	for e, c := range counts {
		if p.prev[e] != c {
			continue
		}
		if n.Center.Quorum(e).Hold {
			p.heldTicks[e]++
			if p.heldTicks[e] <= n.maxWait {
				continue
			}
		}
		n.analyze(e, center.CloseQuiescent)
		delete(counts, e)
		delete(p.heldTicks, e)
	}
	p.prev = counts
	return n.take()
}

// tickStep is one window tick of a policy scenario.
type tickStep struct {
	before []transport.Message // arrive before the tick fires
	during []transport.Message // arrive while the tick's first report is being finished
	want   []string            // what the tick reports, in order
}

var policyCases = []struct {
	name  string
	cfg   center.Config
	steps []tickStep
	// parent is what the parent's policy reports per step where it differs;
	// nil means the two agree tick for tick. parentAnyOf marks a difference
	// that depends on map iteration order: the parent shows it on some runs.
	parent      [][]string
	parentAnyOf bool
	heldLeft    int // entries the parent leaves behind in heldTicks (the change leaves none)
}{
	{
		name: "superseded epoch closes at once, newest after one unchanged tick",
		steps: []tickStep{
			{before: []transport.Message{dg(1, 1), dg(2, 1), dg(1, 2), dg(2, 2)}, want: []string{"1"}},
			{want: []string{"2"}},
			{want: []string{}},
		},
	},
	{
		name: "an epoch still growing stays open",
		steps: []tickStep{
			{before: []transport.Message{dg(1, 1)}, want: []string{}},
			{before: []transport.Message{dg(2, 1)}, want: []string{}},
			{want: []string{"1"}},
		},
	},
	{
		name: "quorum holds a quiescent epoch for exactly MaxWait ticks, then Degraded",
		cfg:  center.Config{MinRouters: 3, MaxWait: 2},
		steps: []tickStep{
			{before: []transport.Message{dg(1, 1), dg(2, 1), dg(3, 1), dg(1, 2), dg(2, 2)}, want: []string{"1"}},
			{want: []string{}}, // held, tick 1/2
			{want: []string{}}, // held, tick 2/2
			{want: []string{"2 degraded[3]"}},
		},
	},
	{
		// The quiescence bug: a long analysis on one tick, an empty drain on
		// the next, and the two counts the parent compares sit back to back.
		// Epoch 2's burst (routers 1, 2, 3) is in flight across both.
		name: "a burst in flight across a long analysis is not idle",
		steps: []tickStep{
			{before: []transport.Message{dg(1, 1), dg(2, 1), dg(1, 2)},
				during: []transport.Message{dg(2, 2)}, want: []string{"1"}},
			{want: []string{}},
			{before: []transport.Message{dg(3, 2)}, want: []string{}},
			{want: []string{"2"}},
		},
		// The parent closes epoch 2 on the second tick with two of its three
		// digests; router 3's arrives late.
		parent: [][]string{{"1"}, {"2"}, {}, {}},
	},
	{
		// The close-order bug: epoch 11 comes out of its quorum hold on the
		// tick epoch 12 goes quiescent. Newest-first forecloses span 11.
		name: "a held epoch and the newest close oldest first under -slide",
		cfg:  center.Config{MinRouters: 2, MaxWait: 2, WindowSlide: 2},
		steps: []tickStep{
			{before: []transport.Message{dg(1, 10), dg(2, 10), dg(1, 11), dg(1, 12)}, want: []string{"10"}},
			{before: []transport.Message{dg(2, 12)}, want: []string{}}, // 11 held, tick 1/2
			{before: []transport.Message{dg(3, 12)}, want: []string{}}, // 11 held, tick 2/2
			{want: []string{"11 degraded[2 3]", "12"}},
		},
		parent:      [][]string{{"10"}, {}, {}, {"12"}},
		parentAnyOf: true,
	},
	{
		// The leak: epoch 11 is held once, then the fleet moves MaxWait epochs
		// on and the superseded drain closes it — not the quiescence path.
		name: "hold state of an epoch closed by the drain is forgotten",
		cfg:  center.Config{MinRouters: 2, MaxWait: 2},
		steps: []tickStep{
			{before: []transport.Message{dg(1, 10), dg(2, 10), dg(1, 11)}, want: []string{"10"}},
			{want: []string{}}, // 11 held, tick 1/2
			{before: []transport.Message{dg(1, 13), dg(2, 13)}, want: []string{"11 degraded[2]"}},
			{want: []string{"13"}},
		},
		heldLeft: 1,
	},
}

// runPolicy plays a scenario against a fresh node and returns what each tick
// reported.
func runPolicy(t *testing.T, cfg center.Config, steps []tickStep, tick func(*Node) ([]center.WindowReport, error)) ([][]string, *Node) {
	t.Helper()
	cfg.SubsetSize = 64 // 256-bit digests; keep the detector's subset inside them
	n := NewNode(cfg, nil)
	var got [][]string
	for i, st := range steps {
		for _, m := range st.before {
			n.Handle(m, from)
		}
		during := st.during
		n.push = sendFunc(func() {
			for _, m := range during {
				n.Handle(m, from)
			}
			during = nil
		})
		reps, err := tick(n)
		if err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
		got = append(got, describeAll(reps))
	}
	return got, n
}

// TestTickPolicy drives the close policy on hand-fed ticks, each scenario
// through the parent's policy as well: the two must agree tick for tick on
// every on-schedule scenario, and differ exactly where the table says the
// parent was wrong.
func TestTickPolicy(t *testing.T) {
	for _, c := range policyCases {
		t.Run(c.name, func(t *testing.T) {
			want := [][]string{}
			for _, st := range c.steps {
				want = append(want, st.want)
			}
			got, n := runPolicy(t, c.cfg, c.steps, (*Node).Tick)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ticks reported %v, want %v", got, want)
			}
			if len(n.held) != 0 {
				t.Fatalf("hold state left behind: %v", n.held)
			}

			parentWant := c.parent
			if parentWant == nil {
				parentWant = want
			}
			// Map order makes the parent's outcome a coin flip where the table
			// says so; 64 fresh runs see both sides.
			trials := 1
			if c.parentAnyOf {
				trials = 64
			}
			differed := false
			for trial := 0; trial < trials; trial++ {
				p := &parentPolicy{prev: map[int]int{}, heldTicks: map[int]int{}}
				pgot, _ := runPolicy(t, c.cfg, c.steps, p.tick)
				if len(p.heldTicks) != c.heldLeft {
					t.Fatalf("parent policy left %d hold entries, table says %d", len(p.heldTicks), c.heldLeft)
				}
				if reflect.DeepEqual(pgot, parentWant) {
					differed = true
				} else if !c.parentAnyOf || !reflect.DeepEqual(pgot, want) {
					t.Fatalf("parent policy reported %v, table says %v", pgot, parentWant)
				}
			}
			if !differed {
				t.Fatalf("parent policy never reported %v in %d runs", parentWant, trials)
			}
		})
	}
}

// TestDrainOrder: the shutdown drain hands out shed tombstones first, then
// the superseded epochs as AnalyzeLatestComplete orders them, then what is
// still buffered, oldest first — and logs each as dcsd does.
func TestDrainOrder(t *testing.T) {
	probe := center.New(center.Config{})
	for r := 1; r <= 3; r++ {
		probe.Ingest(dg(r, 1))
	}
	// Room for two and a half epochs of three digests: the fourth epoch sheds
	// the first.
	var logs bytes.Buffer
	n := NewNode(center.Config{MaxEpochs: 8, MemoryBudgetBytes: probe.BufferedBytes() * 7 / 2}, log.New(&logs, "", 0))
	for e := 1; e <= 4; e++ {
		for r := 1; r <= 3; r++ {
			n.Handle(dg(r, e), from)
		}
	}
	reps, err := n.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describeAll(reps), []string{"1 shed", "3", "2", "4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("drain order %v, want %v", got, want)
	}
	if left := n.Center.Epochs(); len(left) != 0 {
		t.Fatalf("epochs %v still buffered after the drain", left)
	}
	for _, line := range []string{
		"epoch 1 SHED: 3 digests from 3 routers",
		"epoch 4 aligned: no pattern across 3 routers",
	} {
		if !strings.Contains(logs.String(), line) {
			t.Errorf("log lacks %q", line)
		}
	}
}

// replayedEpochs reopens a journal directory and reports which epochs it
// still replays.
func replayedEpochs(t *testing.T, dir string, cfg center.Config) []int {
	t.Helper()
	n := NewNode(cfg, nil)
	if err := n.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	return n.Center.Epochs()
}

// TestFinishRetiresOnlyRetiredEpochs: under -slide 3 a report's own epoch
// stays buffered for the next two spans, so the journal may forget only what
// the report retired — including on the first spans, which retire nothing.
func TestFinishRetiresOnlyRetiredEpochs(t *testing.T) {
	dir := t.TempDir()
	cfg := center.Config{WindowSlide: 3, MaxEpochs: 8}
	n := NewNode(cfg, nil)
	if err := n.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 4; e++ {
		n.Handle(dg(1, e), from)
		n.Handle(dg(2, e), from)
	}
	// Spans 1, 2 and 3 are superseded and close in order; span 3 covers
	// epochs 1..3 and retires epoch 1 alone.
	reps, err := n.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describeAll(reps), []string{"1", "2", "3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tick reported %v, want %v", got, want)
	}
	if got := reps[2].RetiredEpochs; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("span 3 retired %v, want [1]", got)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := replayedEpochs(t, dir, cfg), []int{2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a restart replays epochs %v, want %v: the journal forgot an epoch a future span still needs, or kept a retired one", got, want)
	}
}

// TestShedTombstoneRetiresJournal: an epoch shed under the memory budget is
// forwarded by the next tick as its tombstone and marked analyzed, so a
// restart does not replay it into a window that no longer exists.
func TestShedTombstoneRetiresJournal(t *testing.T) {
	probe := center.New(center.Config{})
	probe.Ingest(dg(1, 1))
	probe.Ingest(dg(2, 1))
	dir := t.TempDir()
	cfg := center.Config{MemoryBudgetBytes: probe.BufferedBytes() * 3 / 2}
	n := NewNode(cfg, nil)
	if err := n.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 2; e++ {
		n.Handle(dg(1, e), from)
		n.Handle(dg(2, e), from)
	}
	reps, err := n.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describeAll(reps), []string{"1 shed"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tick reported %v, want %v", got, want)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.MemoryBudgetBytes = 0
	if got, want := replayedEpochs(t, dir, cfg), []int{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a restart replays epochs %v, want %v", got, want)
	}
}

// spans names each report by its epoch and the epochs its span held data for,
// the way the restart scenarios are written down: "5[3 4 5]".
func spans(reps []center.WindowReport) []string {
	out := []string{}
	for _, rep := range reps {
		out = append(out, fmt.Sprintf("%d%v", rep.Epoch, rep.SpanEpochs))
	}
	return out
}

// slidingLife opens a -slide 3 node on dir, feeds it the given epochs whole
// and ticks until they are all reported; push, when not nil, runs in the
// middle of every finish.
func slidingLife(t *testing.T, dir string, push sendFunc, epochs ...int) (*Node, []center.WindowReport) {
	t.Helper()
	n := NewNode(center.Config{SubsetSize: 64, WindowSlide: 3, MaxEpochs: 8}, nil)
	if err := n.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	if push != nil {
		n.push = push
	}
	for _, e := range epochs {
		n.Handle(dg(1, e), from)
		n.Handle(dg(2, e), from)
	}
	var all []center.WindowReport
	for i := 0; i < 3; i++ {
		reps, err := n.Tick()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, reps...)
	}
	return n, all
}

// TestRestartNeverReReportsASpan: under -slide 3 the journal keeps the last
// two reported epochs, because the spans ahead still need them. A restart
// replays them as context; it must not report their spans a second time, on
// the truncated context the retirements left — 4[4] and 5[4 5], a second and
// different verdict for spans the first life already reported as 4[2 3 4]
// and 5[3 4 5].
func TestRestartNeverReReportsASpan(t *testing.T) {
	dir := t.TempDir()
	one, reps := slidingLife(t, dir, nil, 1, 2, 3, 4, 5)
	if got, want := spans(reps), []string{"1[1]", "2[1 2]", "3[1 2 3]", "4[2 3 4]", "5[3 4 5]"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("life one reported %v, want %v", got, want)
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}
	two, reps := slidingLife(t, dir, nil, 6)
	defer two.Close()
	if got, want := spans(reps), []string{"6[4 5 6]"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("life two reported %v, want %v: a span the first life reported came out again", got, want)
	}
}

// TestCrashAfterReportRepeatsItIdentically: finish orders its steps report →
// span mark → retirement, so the journal as a crash leaves it between any two
// of them can only make the next life repeat the last report bit for bit. The
// crash images are copies of the journal directory taken while report 5 is
// being pushed (reported, not yet marked) and just after finish returns.
func TestCrashAfterReportRepeatsItIdentically(t *testing.T) {
	snapshot := func(from, to string) {
		entries, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if ent.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(from, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(to, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir, midFinish, afterFinish := t.TempDir(), t.TempDir(), t.TempDir()
	pushes := 0
	one, first := slidingLife(t, dir, func() {
		if pushes++; pushes == 5 {
			snapshot(dir, midFinish)
		}
	}, 1, 2, 3, 4, 5)
	defer one.Close()
	if len(first) != 5 {
		t.Fatalf("life one reported %v, want five spans", spans(first))
	}
	snapshot(dir, afterFinish)

	two, reps := slidingLife(t, midFinish, nil, 6)
	defer two.Close()
	if got, want := spans(reps), []string{"5[3 4 5]", "6[4 5 6]"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a crash between report and span mark: life two reported %v, want %v", got, want)
	}
	if !reflect.DeepEqual(reps[0], first[4]) {
		t.Fatalf("the repeated report differs from the first:\n got %+v\nwant %+v", reps[0], first[4])
	}
	three, reps := slidingLife(t, afterFinish, nil, 6)
	defer three.Close()
	if got, want := spans(reps), []string{"6[4 5 6]"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a crash after finish: the next life reported %v, want %v", got, want)
	}
}
