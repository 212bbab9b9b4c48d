package journal_test

import (
	"fmt"
	"testing"

	"dcstream/internal/faultinject/fsfault"
	"dcstream/internal/journal"
)

// TestOneDurableStepPerReport counts, through fsfault, what one delivered
// span report costs the journal at -slide 1 and -slide 3, with the calls
// daemon.Node makes: each epoch's digests appended and made durable by the
// barrier, then the report's Reported. Each report is one sidecar write and
// one sidecar fsync — the span mark and the watermark together — and one
// directory sync for the sealed segment's successor and the purge together.
func TestOneDurableStepPerReport(t *testing.T) {
	for _, slide := range []int{1, 3} {
		t.Run(fmt.Sprintf("slide=%d", slide), func(t *testing.T) {
			fs := fsfault.NewFS(nil)
			j, err := journal.Open(t.TempDir(), journal.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			purged := 0
			for e := 1; e <= 8; e++ {
				if err := j.Append(degMsg(1, e), degMsg(2, e)); err != nil {
					t.Fatal(err)
				}
				if err := j.Sync(); err != nil {
					t.Fatal(err)
				}
				writes, syncs, dirSyncs := fs.Ops(fsfault.FaultWrite), fs.Ops(fsfault.FaultSync), fs.Ops(fsfault.FaultSyncDir)
				if err := j.Reported(e-slide+1, e); err != nil {
					t.Fatal(err)
				}
				got := [3]int{fs.Ops(fsfault.FaultWrite) - writes, fs.Ops(fsfault.FaultSync) - syncs, fs.Ops(fsfault.FaultSyncDir) - dirSyncs}
				if got != [3]int{1, 1, 1} {
					t.Fatalf("report of span %d: %d sidecar writes, %d fsyncs, %d directory syncs; want one each", e, got[0], got[1], got[2])
				}
				purged = int(j.Stats().SegmentsPurged.Load())
			}
			// Every report sealed its epoch's segment; the last slide-1 of
			// them are still context.
			if want := 8 - (slide - 1); purged != want {
				t.Fatalf("%d segments purged, want %d", purged, want)
			}
		})
	}
}
