// Degraded-mode tests live outside the journal package: they script disk
// faults through fsfault.FS, which imports journal for the FS interface,
// so an in-package import would be a cycle.
package journal_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcstream/internal/bitvec"
	"dcstream/internal/faultinject/fsfault"
	"dcstream/internal/journal"
	"dcstream/internal/transport"
)

func degMsg(router, epoch int) transport.AlignedDigest {
	v := bitvec.New(256)
	s := uint64(router*1000 + epoch)
	v.FillRandomHalf(func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s
	})
	return transport.AlignedDigest{RouterID: router, Epoch: epoch, Bitmap: v}
}

func replayAll(t *testing.T, j *journal.Journal) []transport.AlignedDigest {
	t.Helper()
	var got []transport.AlignedDigest
	if err := j.Replay(func(m transport.Message) error {
		got = append(got, m.(transport.AlignedDigest))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestDegradedAbsorbsAppendFaults is the core overload contract: a disk
// fault on append flips the journal to Degraded instead of propagating as
// fatal, every suspended append is counted (replay honesty), and an explicit
// re-arm restores service on a fresh segment without losing the pre-fault
// frames.
func TestDegradedAbsorbsAppendFaults(t *testing.T) {
	dir := t.TempDir()
	fs := fsfault.NewFS(nil)
	enospc := errors.New("no space left on device")
	// RetryInterval is huge so the backoff timer cannot fire mid-test; the
	// recovery below is driven explicitly through TryRearm.
	j, err := journal.Open(dir, journal.Options{FS: fs, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(degMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(degMsg(1, 1)); err != nil {
		t.Fatal(err)
	}

	fs.FailNext(fsfault.FaultWrite, 1, enospc)
	if err := j.Append(degMsg(2, 1)); !errors.Is(err, journal.ErrDegraded) || !errors.Is(err, enospc) {
		t.Fatalf("append on full disk returned %v, want ErrDegraded wrapping the cause", err)
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded after append fault")
	}
	// The ingest path keeps calling Append; each one is absorbed and counted.
	for i := 0; i < 3; i++ {
		if err := j.Append(degMsg(3+i, 1)); !errors.Is(err, journal.ErrDegraded) {
			t.Fatalf("absorbed append %d returned %v", i, err)
		}
	}
	if got := j.Stats().UnjournaledFrames.Load(); got != 4 {
		t.Fatalf("unjournaled frames = %d, want 4 (trigger + 3 absorbed)", got)
	}

	// Disk "fixed": re-arm restores appends on a fresh segment.
	if !j.TryRearm() {
		t.Fatal("TryRearm failed with no faults armed")
	}
	if j.Degraded() {
		t.Fatal("journal still degraded after successful re-arm")
	}
	if err := j.Append(degMsg(9, 2)); err != nil {
		t.Fatal(err)
	}
	s := j.Stats()
	if s.Rearms.Load() != 1 || s.RearmAttempts.Load() < 1 {
		t.Fatalf("rearms=%d attempts=%d, want 1 rearm", s.Rearms.Load(), s.RearmAttempts.Load())
	}

	// Crash and recover: the pre-fault and post-rearm frames replay; the
	// four unjournaled ones are honestly gone — exactly what the counter
	// promised.
	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := replayAll(t, j2)
	if len(got) != 3 {
		t.Fatalf("replayed %d frames, want 3 (2 pre-fault + 1 post-rearm)", len(got))
	}
	routers := map[int]bool{}
	for _, d := range got {
		routers[d.RouterID] = true
	}
	for _, r := range []int{0, 1, 9} {
		if !routers[r] {
			t.Fatalf("journaled frame from router %d missing after recovery (got %v)", r, routers)
		}
	}
}

// TestDegradedAutoRearmOnBackoff: with a short RetryInterval, Append itself
// re-arms once the backoff expires — no operator intervention needed.
func TestDegradedAutoRearmOnBackoff(t *testing.T) {
	fs := fsfault.NewFS(nil)
	j, err := journal.Open(t.TempDir(), journal.Options{FS: fs, RetryInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fs.FailNext(fsfault.FaultWrite, 1, errors.New("EIO"))
	if err := j.Append(degMsg(0, 1)); !errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("append fault returned %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := j.Append(degMsg(1, 1)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never auto-rearmed within 5s at a 1ms base backoff")
		}
		time.Sleep(time.Millisecond)
	}
	if s := j.Stats(); s.Rearms.Load() != 1 || j.Degraded() {
		t.Fatalf("after auto-rearm: rearms=%d degraded=%v", s.Rearms.Load(), j.Degraded())
	}
}

// TestDegradedRearmFailureKeepsBackoff: a re-arm that itself hits the disk
// stays degraded and counts the attempt; recovery succeeds once the fault
// clears.
func TestDegradedRearmFailureKeepsBackoff(t *testing.T) {
	fs := fsfault.NewFS(nil)
	j, err := journal.Open(t.TempDir(), journal.Options{FS: fs, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fs.FailNext(fsfault.FaultWrite, 1, errors.New("ENOSPC"))
	if err := j.Append(degMsg(0, 1)); !errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("append fault returned %v", err)
	}
	// The re-arm's fresh-segment open fails too: still degraded.
	fs.FailNext(fsfault.FaultOpen, 1, errors.New("ENOSPC"))
	if j.TryRearm() {
		t.Fatal("TryRearm claimed success while OpenAppend was failing")
	}
	if s := j.Stats(); s.RearmAttempts.Load() != 1 || s.Rearms.Load() != 0 {
		t.Fatalf("attempts=%d rearms=%d after failed re-arm", s.RearmAttempts.Load(), s.Rearms.Load())
	}
	if !j.TryRearm() {
		t.Fatal("TryRearm failed after the fault cleared")
	}
	if err := j.Append(degMsg(1, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestAppendShortWriteReconcilesOffset is the satellite regression: a failed
// append used to leave the in-memory offset advanced past the bytes actually
// written, so the torn half-frame stayed on disk and desynchronized the
// recovery scan. Now the segment is truncated back to the last whole-frame
// boundary at fault time, and a crash-reopen finds a cleanly framed file.
func TestAppendShortWriteReconcilesOffset(t *testing.T) {
	dir := t.TempDir()
	fs := fsfault.NewFS(nil)
	j, err := journal.Open(dir, journal.Options{FS: fs, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(degMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	fs.ShortWriteNext(1)
	if err := j.Append(degMsg(1, 1)); !errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("short write returned %v, want ErrDegraded", err)
	}
	if got := j.Stats().TailsTruncated.Load(); got != 1 {
		t.Fatalf("tails truncated = %d, want 1 (the in-place reconcile)", got)
	}
	if !j.TryRearm() {
		t.Fatal("re-arm failed")
	}
	if err := j.Append(degMsg(2, 1)); err != nil {
		t.Fatal(err)
	}

	// Crash-reopen: both journaled frames replay, and no recovery-time
	// truncation was needed — the reconcile already happened physically.
	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Stats().TailsTruncated.Load(); got != 0 {
		t.Fatalf("reopen truncated %d tails — failed append left a torn frame on disk", got)
	}
	got := replayAll(t, j2)
	if len(got) != 2 || got[0].RouterID != 0 || got[1].RouterID != 2 {
		ids := make([]int, len(got))
		for i, d := range got {
			ids[i] = d.RouterID
		}
		t.Fatalf("replayed routers %v, want [0 2]", ids)
	}
}

// TestMidSegmentCorruptionQuarantined: corruption in the middle of a segment
// no longer forfeits every frame after the torn point — the segment is moved
// to quarantine/ and the frames beyond the corrupt gap are rescued by the
// resynchronizing scan, across multiple crash-reopens.
func TestMidSegmentCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if err := j.Append(degMsg(r, 1+r)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without Close, then corrupt the middle of the second frame.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.dcsj"))
	if len(segs) != 1 {
		t.Fatalf("segments on disk: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(data) / 4 // four identically sized aligned frames
	for i := frameLen + frameLen/2; i < frameLen+frameLen/2+8; i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := j2.Stats()
	if s.SegmentsQuarantined.Load() != 1 || s.FramesRescued.Load() != 2 {
		t.Fatalf("quarantined=%d rescued=%d, want 1 segment and 2 frames", s.SegmentsQuarantined.Load(), s.FramesRescued.Load())
	}
	got := replayAll(t, j2)
	if len(got) != 3 || got[0].RouterID != 0 || got[1].RouterID != 2 || got[2].RouterID != 3 {
		ids := make([]int, len(got))
		for i, d := range got {
			ids[i] = d.RouterID
		}
		t.Fatalf("replayed routers %v, want [0 2 3] (frame 1 corrupt, 2-3 rescued)", ids)
	}
	// The file was physically moved aside.
	if _, err := os.Stat(segs[0]); !os.IsNotExist(err) {
		t.Fatalf("corrupt segment still in the journal dir: %v", err)
	}
	qfiles, _ := filepath.Glob(filepath.Join(dir, "quarantine", "seg-*.dcsj"))
	if len(qfiles) != 1 {
		t.Fatalf("quarantine dir holds %v, want the moved segment", qfiles)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// A second crash before analysis: the quarantined survivors must still
	// replay — quarantine is a holding pen, not a black hole.
	j3, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, j3); len(got) != 3 {
		t.Fatalf("second reopen replayed %d frames, want 3", len(got))
	}
	// Analyzing every surviving epoch retires the quarantined entry from the
	// replay set, but the artifact stays on disk for forensics.
	for _, e := range []int{1, 3, 4} {
		if err := j3.EpochAnalyzed(e); err != nil {
			t.Fatal(err)
		}
	}
	if n := j3.Segments(); n != 0 {
		t.Fatalf("sealed segments = %d after analyzing all epochs, want 0", n)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if qfiles, _ = filepath.Glob(filepath.Join(dir, "quarantine", "seg-*.dcsj")); len(qfiles) != 1 {
		t.Fatalf("quarantined artifact deleted (%v) — forensics evidence must survive purge", qfiles)
	}
	// And a third open replays nothing: the rescued epochs are durably
	// analyzed even though the quarantined file persists.
	j4, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if got := replayAll(t, j4); len(got) != 0 {
		t.Fatalf("analyzed quarantined epochs replayed again: %d frames", len(got))
	}
}

// TestEpochAnalyzedRollbackOnSidecarFault: a mark whose sidecar write fails
// is rolled back — the epoch replays after a crash instead of being purged
// on the strength of a mark that never reached the disk.
func TestEpochAnalyzedRollbackOnSidecarFault(t *testing.T) {
	dir := t.TempDir()
	fs := fsfault.NewFS(nil)
	j, err := journal.Open(dir, journal.Options{FS: fs, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(degMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	fs.FailNext(fsfault.FaultWrite, 1, errors.New("EIO"))
	if err := j.EpochAnalyzed(1); !errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("failed mark returned %v, want ErrDegraded", err)
	}
	// Crash now: the epoch must replay — the mark was rolled back.
	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); len(got) != 1 {
		t.Fatalf("replayed %d frames after rolled-back mark, want 1", len(got))
	}
	// Recovery path on the faulted journal: re-arm, mark again, and the mark
	// sticks this time.
	if !j.TryRearm() {
		t.Fatal("re-arm failed")
	}
	if err := j.EpochAnalyzed(1); err != nil {
		t.Fatal(err)
	}
	j3, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := replayAll(t, j3); len(got) != 0 {
		t.Fatalf("replayed %d frames after durable mark, want 0", len(got))
	}
}
