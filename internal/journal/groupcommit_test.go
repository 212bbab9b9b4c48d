package journal_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcstream/internal/bitvec"
	"dcstream/internal/faultinject/fsfault"
	"dcstream/internal/journal"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

func openFaulty(t *testing.T) (*journal.Journal, *fsfault.FS, string) {
	t.Helper()
	dir, fs := t.TempDir(), fsfault.NewFS(nil)
	j, err := journal.Open(dir, journal.Options{FS: fs, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, fs, dir
}

// afterPowerCut is how many frames a restart replays from what a power loss
// right now would leave of dir.
func afterPowerCut(t *testing.T, fs *fsfault.FS, dir string) int {
	t.Helper()
	img := filepath.Join(t.TempDir(), "journal")
	if err := fs.PowerCut(dir, img); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(img, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	frames := 0
	if err := j.Replay(func(transport.Message) error { frames++; return nil }); err != nil {
		t.Fatal(err)
	}
	return frames
}

// segment reads the one segment in dir.
func segment(t *testing.T, dir string) []byte {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.dcsj"))
	if len(segs) != 1 {
		t.Fatalf("segments on disk: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkLedger holds the journal's books to the frames handed to Append: each
// was either appended or counted unjournaled, never both and never neither.
func checkLedger(t *testing.T, j *journal.Journal, in int) {
	t.Helper()
	if s := j.Stats(); s.FramesAppended+s.UnjournaledFrames != in {
		t.Fatalf("%d appended + %d unjournaled, want the %d frames handed in", s.FramesAppended, s.UnjournaledFrames, in)
	}
}

// TestAppendIsOneWriteAndNoSync pins the group-commit cost model and the
// segment format together: a call reaches the file in one write with no
// fsync, whether it carries one frame or a datagram's worth; the bytes are
// exactly transport.Write's; one Sync covers the batch, and a Sync with
// nothing new costs no syscall.
func TestAppendIsOneWriteAndNoSync(t *testing.T) {
	j, fs, dir := openFaulty(t)
	row := func(seed uint64) *bitvec.Vector {
		v := bitvec.New(128)
		v.FillRandomHalf(func() uint64 { seed = seed*6364136223846793005 + 1; return seed })
		return v
	}
	msgs := []transport.Message{
		degMsg(1, 1),
		transport.UnalignedDigest{Epoch: 1, Digest: &unaligned.Digest{RouterID: 2, Rows: [][]*bitvec.Vector{{row(1), row(2)}, {row(3), row(4)}}}},
		degMsg(3, 1),
	}
	writes, syncs := fs.Ops(fsfault.FaultWrite), fs.Ops(fsfault.FaultSync)
	var wire bytes.Buffer
	if err := j.Append(msgs...); err != nil {
		t.Fatal(err)
	}
	if w, s := fs.Ops(fsfault.FaultWrite)-writes, fs.Ops(fsfault.FaultSync)-syncs; w != 1 || s != 0 {
		t.Fatalf("a %d-frame append cost %d writes and %d fsyncs, want one write and no fsync", len(msgs), w, s)
	}
	for _, m := range msgs {
		if err := transport.Write(&wire, m); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(segment(t, dir), wire.Bytes()) {
		t.Fatalf("the batch on disk is not %d transport.Writes", len(msgs))
	}
	for _, m := range msgs {
		if err := j.Append(m); err != nil {
			t.Fatal(err)
		}
		if err := transport.Write(&wire, m); err != nil {
			t.Fatal(err)
		}
	}
	if w, s := fs.Ops(fsfault.FaultWrite)-writes, fs.Ops(fsfault.FaultSync)-syncs; w != 1+len(msgs) || s != 0 {
		t.Fatalf("%d single-frame appends cost %d writes and %d fsyncs, want one write each and no fsync", len(msgs), w-1, s)
	}
	checkLedger(t, j, 2*len(msgs))
	if got := afterPowerCut(t, fs, dir); got != 0 {
		t.Fatalf("%d frames survive a power cut before any Sync; the model is not cutting", got)
	}
	for i := 0; i < 2; i++ {
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if s := fs.Ops(fsfault.FaultSync) - syncs; s != 1 {
		t.Fatalf("two Syncs over one batch cost %d fsyncs, want 1: the second had nothing to make durable", s)
	}
	if got := afterPowerCut(t, fs, dir); got != 2*len(msgs) {
		t.Fatalf("%d frames survive a power cut after Sync, want %d", got, 2*len(msgs))
	}
	if data := segment(t, dir); !bytes.Equal(data, wire.Bytes()) {
		t.Fatalf("the segment is not the concatenation of the wire frames (%d bytes on disk, %d on the wire)", len(data), wire.Len())
	}
}

// TestTornBatchCountsTheWholeBatch: a write that fails part-way through a
// batch leaves whole frames and a torn one behind it. The segment is cut back
// to where the batch began, and every frame of the batch is counted
// unjournaled — the ones that landed whole included, since the cut took them.
func TestTornBatchCountsTheWholeBatch(t *testing.T) {
	j, fs, dir := openFaulty(t)
	if err := j.Append(degMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	before := segment(t, dir)
	fs.ShortWriteNext(1) // half of three frames lands: one whole, one torn
	if err := j.Append(degMsg(1, 1), degMsg(2, 1), degMsg(3, 1)); !errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("a torn batch returned %v, want ErrDegraded", err)
	}
	if s := j.Stats(); s.FramesAppended != 1 || s.UnjournaledFrames != 3 || s.TailsTruncated != 1 {
		t.Fatalf("after the torn batch: %+v, want 1 appended, the batch's 3 unjournaled, 1 tail cut", s)
	}
	checkLedger(t, j, 4)
	if !bytes.Equal(segment(t, dir), before) {
		t.Fatal("the segment was not cut back to the frame boundary the batch began at")
	}
	if err := j.Append(degMsg(4, 1), degMsg(5, 1)); !errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("a batch while degraded returned %v", err)
	}
	checkLedger(t, j, 6)

	reopened, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Stats().TailsTruncated; got != 0 {
		t.Fatalf("reopen truncated %d tails: the failed batch left a torn frame on disk", got)
	}
	if got := replayAll(t, reopened); len(got) != 1 || got[0].RouterID != 0 {
		t.Fatalf("replayed %d frames, want router 0's alone", len(got))
	}
}

// TestEncoderRejectInBatch: a frame the encoder refuses costs only itself —
// it is counted unjournaled and its error returned, while its neighbours are
// written in the same single write and the journal stays healthy.
func TestEncoderRejectInBatch(t *testing.T) {
	j, fs, dir := openFaulty(t)
	writes := fs.Ops(fsfault.FaultWrite)
	nilBitmap := transport.AlignedDigest{RouterID: 1, Epoch: 1}
	err := j.Append(degMsg(0, 1), nilBitmap, degMsg(2, 1))
	if err == nil || errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("a batch with an unencodable frame returned %v, want the encoder's error", err)
	}
	if w := fs.Ops(fsfault.FaultWrite) - writes; w != 1 {
		t.Fatalf("the batch cost %d writes, want 1", w)
	}
	if s := j.Stats(); s.Degraded || s.FramesAppended != 2 || s.UnjournaledFrames != 1 {
		t.Fatalf("after the rejected frame: %+v, want healthy with 2 appended and 1 unjournaled", s)
	}
	checkLedger(t, j, 3)
	if err := j.Append(nilBitmap); err == nil {
		t.Fatal("a lone unencodable frame was accepted")
	}
	if w := fs.Ops(fsfault.FaultWrite) - writes; w != 1 {
		t.Fatalf("a call with nothing to write cost a write (%d in all)", w)
	}
	checkLedger(t, j, 4)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := afterPowerCut(t, fs, dir); got != 2 {
		t.Fatalf("%d frames survive a power cut, want the rejected frame's 2 neighbours", got)
	}
}

// TestSyncFaultCountsTheBatch: a failed barrier degrades the journal and
// counts every frame written since the last good one — UnjournaledFrames
// stays an upper bound on what a crash can now take.
func TestSyncFaultCountsTheBatch(t *testing.T) {
	j, fs, dir := openFaulty(t)
	for r := 0; r < 2; r++ {
		if err := j.Append(degMsg(r, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	for r := 2; r < 7; r++ {
		if err := j.Append(degMsg(r, 1)); err != nil {
			t.Fatal(err)
		}
	}
	eio := errors.New("input/output error")
	fs.FailNext(fsfault.FaultSync, 1, eio)
	if err := j.Sync(); !errors.Is(err, journal.ErrDegraded) || !errors.Is(err, eio) {
		t.Fatalf("failed Sync returned %v, want ErrDegraded wrapping the cause", err)
	}
	s := j.Stats()
	if !s.Degraded || s.FramesAppended != 7 || s.UnjournaledFrames != 5 || s.UnsyncedFrames != 0 {
		t.Fatalf("after the failed Sync: %+v, want degraded with the 5 frames of the batch unjournaled", s)
	}
	if err := j.Sync(); !errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("Sync while degraded returned %v", err)
	}
	if lost := 7 - afterPowerCut(t, fs, dir); lost > s.UnjournaledFrames {
		t.Fatalf("a power cut now loses %d frames, the books admit %d", lost, s.UnjournaledFrames)
	}
}

// TestNoSegmentIsClosedDirty: every path that stops writing a segment —
// rotation, the re-arm that abandons a faulted one, Close — syncs what it
// holds first, so frames never depend on a writeback no barrier covers; and
// where that sync fails the frames are counted.
func TestNoSegmentIsClosedDirty(t *testing.T) {
	t.Run("rotate", func(t *testing.T) {
		j, fs, dir := openFaulty(t)
		if err := j.Append(degMsg(0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := j.EpochAnalyzed(2); err != nil { // rotates; epoch 1 stays live
			t.Fatal(err)
		}
		if got := afterPowerCut(t, fs, dir); got != 1 {
			t.Fatalf("%d frames survive a power cut after a rotation, want 1", got)
		}
	})
	t.Run("close", func(t *testing.T) {
		j, fs, dir := openFaulty(t)
		if err := j.Append(degMsg(0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got := afterPowerCut(t, fs, dir); got != 1 {
			t.Fatalf("%d frames survive a power cut after Close, want 1", got)
		}
	})
	t.Run("re-arm", func(t *testing.T) {
		j, fs, dir := openFaulty(t)
		for r := 0; r < 2; r++ {
			if err := j.Append(degMsg(r, 1)); err != nil {
				t.Fatal(err)
			}
		}
		fs.FailNext(fsfault.FaultWrite, 1, errors.New("no space left on device"))
		if err := j.Append(degMsg(2, 1)); !errors.Is(err, journal.ErrDegraded) {
			t.Fatalf("append on a full disk returned %v", err)
		}
		if s := j.Stats(); s.UnsyncedFrames != 2 || s.UnjournaledFrames != 1 {
			t.Fatalf("degraded with two good frames unsynced: %+v", s)
		}
		if !j.TryRearm() {
			t.Fatal("re-arm failed")
		}
		if got := afterPowerCut(t, fs, dir); got != 2 {
			t.Fatalf("%d frames of the abandoned segment survive a power cut, want 2", got)
		}
	})
	t.Run("re-arm, sync failing", func(t *testing.T) {
		j, fs, _ := openFaulty(t)
		for r := 0; r < 2; r++ {
			if err := j.Append(degMsg(r, 1)); err != nil {
				t.Fatal(err)
			}
		}
		fs.FailNext(fsfault.FaultWrite, 1, errors.New("no space left on device"))
		if err := j.Append(degMsg(2, 1)); !errors.Is(err, journal.ErrDegraded) {
			t.Fatalf("append on a full disk returned %v", err)
		}
		fs.FailNext(fsfault.FaultSync, 1, errors.New("input/output error"))
		if !j.TryRearm() {
			t.Fatal("re-arm failed: the abandoned segment's sync fault is counted, not fatal")
		}
		if s := j.Stats(); s.UnjournaledFrames != 3 || s.UnsyncedFrames != 0 {
			t.Fatalf("after abandoning a segment whose sync failed: %+v, want 3 unjournaled (the refused frame and the two unsynced)", s)
		}
	})
}
