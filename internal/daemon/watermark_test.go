package daemon

import (
	"fmt"
	"reflect"
	"testing"

	"dcstream/internal/center"
	"dcstream/internal/journal"
	"dcstream/internal/transport"
)

// TestLateEpochIsNoGhost: at -slide 1 epochs 1 and 3 are reported, and a
// straggler for epoch 2 arrives after them. The center counts it late — its
// floor is past epoch 2 — and the journal, which logs before the center
// judges, holds its frame. A restart on that journal must skip the frame:
// reporting epoch 2 in the next life would be a verdict the first life
// refused to give.
func TestLateEpochIsNoGhost(t *testing.T) {
	dir := t.TempDir()
	cfg := center.Config{SubsetSize: 64}
	n := NewNode(cfg, nil)
	if err := n.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int{1, 3} {
		n.Handle(dg(1, e), from)
		n.Handle(dg(2, e), from)
	}
	reps, err := n.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describeAll(reps), []string{"1", "3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("life one reported %v, want %v", got, want)
	}
	n.Handle(dg(1, 2), from)
	if late := n.Center.Stats().LateDigests.Load(); late != 1 {
		t.Fatalf("the straggler for epoch 2 counted %d late, want 1", late)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, reps := nextLife(t, cfg, dir); len(reps) != 0 {
		t.Fatalf("life two reported %v: a digest the first life counted late came back as a report", describeAll(reps))
	}
}

// TestJournalBooksBoundedByTheRing sends 10 000 epochs of two routers through
// a node with a journal, each reported as it completes, at -slide 1 and
// -slide 3. The journal's per-epoch marks are books about epochs the center
// still buffers, so after every report they number at most the ring
// (MaxEpochs), however long the node has run; and a restart replays no frame
// of an epoch a report retired. The journal runs on a filesystem whose fsyncs
// are no-ops: nothing crashes here, and the marks are what is counted.
func TestJournalBooksBoundedByTheRing(t *testing.T) {
	const epochs = 10000
	for _, slide := range []int{1, 3} {
		t.Run(fmt.Sprintf("slide=%d", slide), func(t *testing.T) {
			dir := t.TempDir()
			cfg := center.Config{SubsetSize: 64, WindowSlide: slide, MaxEpochs: 4}
			jr, err := journal.Open(dir, journal.Options{FS: noSyncFS{}})
			if err != nil {
				t.Fatal(err)
			}
			n := NewNode(cfg, nil)
			n.Journal = jr
			reported := 0
			for e := 1; e <= epochs; e++ {
				n.HandleBatch(burst(e, 1, 2), from)
				reps, err := n.Wake()
				if err != nil {
					t.Fatal(err)
				}
				reported += len(reps)
				if m := jr.Marks(); len(reps) > 0 && m > cfg.MaxEpochs {
					t.Fatalf("after the report of epoch %d the journal holds %d marks, more than the ring's %d epochs", e, m, cfg.MaxEpochs)
				}
			}
			if reported != epochs {
				t.Fatalf("%d reports for %d epochs", reported, epochs)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			// The last span is [epochs-slide+1, epochs]; it retired its start
			// and everything older.
			if err := again.Replay(func(m transport.Message) error {
				if e := m.(transport.AlignedDigest).Epoch; e <= epochs-slide+1 {
					t.Fatalf("a restart replays a frame of epoch %d, which a report retired", e)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// noSyncFS is the real filesystem with every fsync a no-op.
type noSyncFS struct{ journal.OSFS }

func (noSyncFS) SyncDir(string) error { return nil }

func (fs noSyncFS) OpenAppend(name string) (journal.File, error) {
	f, err := fs.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ journal.File }

func (noSyncFile) Sync() error { return nil }

// TestRestartKeepsRetiredEpochsClosed: a restart hands the center the
// journal's whole retired set — the watermark as its floor, a tombstone for
// each epoch retired above it — so a resend that reaches the next life live
// is as late as it was in the first. Reopening the epoch instead would report
// it again, from whatever digests the resend brings.
func TestRestartKeepsRetiredEpochsClosed(t *testing.T) {
	probe := center.New(center.Config{})
	probe.Ingest(dg(1, 1), dg(2, 1))
	for _, tc := range []struct {
		name  string
		cfg   center.Config
		life1 func(n *Node) ([]center.WindowReport, error)
		want1 []string
		late1 int64
		want2 []string
	}{
		// Reported at -slide 1: epochs 1 and 2 are at or below the watermark.
		{"reported", center.Config{SubsetSize: 64}, (*Node).Drain, []string{"1", "2"}, 1, []string{}},
		// Epoch 1 is shed under the memory budget before anything is
		// reported: a tombstone above the watermark.
		{"shed above the watermark", center.Config{SubsetSize: 64, MemoryBudgetBytes: probe.BufferedBytes() * 3 / 2},
			(*Node).Tick, []string{"1 shed"}, 1, []string{"2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := NewNode(tc.cfg, nil)
			if err := n.OpenJournal(dir); err != nil {
				t.Fatal(err)
			}
			n.HandleBatch(burst(1, 1, 2), from)
			n.HandleBatch(burst(2, 1, 2), from)
			reps, err := tc.life1(n)
			if err != nil {
				t.Fatal(err)
			}
			if got := describeAll(reps); !reflect.DeepEqual(got, tc.want1) {
				t.Fatalf("life one reported %v, want %v", got, tc.want1)
			}
			n.Handle(dg(1, 1), from)
			if late := n.Center.Stats().LateDigests.Load(); late != tc.late1 {
				t.Fatalf("life one counted the resend of epoch 1 %d late, want %d", late, tc.late1)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}

			cfg := tc.cfg
			cfg.MemoryBudgetBytes = 0
			two := NewNode(cfg, nil)
			if err := two.OpenJournal(dir); err != nil {
				t.Fatal(err)
			}
			defer two.Close()
			two.Handle(dg(1, 1), from)
			reps, err = two.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if got := describeAll(reps); !reflect.DeepEqual(got, tc.want2) {
				t.Fatalf("life two reported %v, want %v: the resend of epoch 1 reopened an epoch the first life retired", got, tc.want2)
			}
			if late := two.Center.Stats().LateDigests.Load(); late != 1 {
				t.Fatalf("life two counted the resend %d late, want 1", late)
			}
		})
	}
}
