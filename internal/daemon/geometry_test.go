package daemon

import (
	"reflect"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/transport"
)

// TestGeometryRestartReportsOnce: one router of epoch 1 reports a bitmap of
// another width. The first life finishes the epoch with a Degraded report
// naming that router and marks it analyzed in the journal; a second life on
// the same journal replays none of the epoch's frames and reports nothing.
func TestGeometryRestartReportsOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := center.Config{SubsetSize: 64}
	one := NewNode(cfg, nil)
	if err := one.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	for _, m := range burst(1, 1, 2, 3) {
		one.Handle(m, from)
	}
	one.Handle(transport.AlignedDigest{RouterID: 4, Epoch: 1, Bitmap: bitvec.New(128)}, from)
	reps, err := one.Drain()
	if err != nil {
		t.Fatalf("first life faulted: %v", err)
	}
	if len(reps) != 1 || !reps[0].Degraded || !reflect.DeepEqual(reps[0].ExcludedRouters, []int{4}) || reps[0].Aligned == nil {
		t.Fatalf("first life reported %+v, want one Degraded report of epoch 1 excluding router 4", reps)
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}

	two := NewNode(cfg, nil)
	if err := two.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	if n := two.Journal.Stats().FramesReplayed.Load(); n != 0 {
		t.Fatalf("second life replayed %d frames of an analyzed epoch", n)
	}
	reps, err = two.Drain()
	if err != nil || len(reps) != 0 {
		t.Fatalf("second life reported %v, %v; want nothing", describeAll(reps), err)
	}
}
