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
				if m := jr.Stats().Marks; len(reps) > 0 && m > cfg.MaxEpochs {
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
