package journal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

func testBitmap(seed uint64, bits int) *bitvec.Vector {
	v := bitvec.New(bits)
	s := seed
	v.FillRandomHalf(func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s
	})
	return v
}

func alignedMsg(router, epoch int) transport.AlignedDigest {
	return transport.AlignedDigest{
		RouterID: router, Epoch: epoch,
		Bitmap: testBitmap(uint64(router*1000+epoch), 256),
	}
}

func unalignedMsg(router, epoch int) transport.UnalignedDigest {
	d := &unaligned.Digest{RouterID: router, Rows: make([][]*bitvec.Vector, 2)}
	for g := range d.Rows {
		d.Rows[g] = []*bitvec.Vector{
			testBitmap(uint64(router*100+epoch*10+g), 128),
			testBitmap(uint64(router*100+epoch*10+g+5), 128),
		}
	}
	return transport.UnalignedDigest{Epoch: epoch, Digest: d}
}

func collectReplay(t *testing.T, j *Journal) []transport.Message {
	t.Helper()
	var got []transport.Message
	if err := j.Replay(func(m transport.Message) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAppendCrashReplay is the core crash contract: append frames, "crash"
// (drop the journal without Close), reopen, and every frame comes back in
// append order.
func TestAppendCrashReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []transport.Message{
		alignedMsg(0, 1), alignedMsg(1, 1), unalignedMsg(2, 1),
		alignedMsg(0, 2), unalignedMsg(1, 2),
	}
	for _, m := range want {
		if err := j.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the process dies here.

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := collectReplay(t, j2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i, m := range got {
		switch d := m.(type) {
		case transport.AlignedDigest:
			w, ok := want[i].(transport.AlignedDigest)
			if !ok || d.RouterID != w.RouterID || d.Epoch != w.Epoch || !bitvec.Equal(d.Bitmap, w.Bitmap) {
				t.Fatalf("frame %d mismatch: %+v", i, d)
			}
		case transport.UnalignedDigest:
			w, ok := want[i].(transport.UnalignedDigest)
			if !ok || d.Digest.RouterID != w.Digest.RouterID || d.Epoch != w.Epoch {
				t.Fatalf("frame %d mismatch: %+v", i, d)
			}
		}
	}
}

// TestTornTailTruncated simulates a crash mid-append: garbage (and a partial
// frame) after valid frames is cut off at Open, and only the valid prefix
// replays.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(alignedMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(alignedMsg(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a valid frame prefix (cut mid-payload) after the good
	// frames, as an interrupted write would leave.
	var frame bytes.Buffer
	if err := transport.Write(&frame, alignedMsg(2, 1)); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("segments on disk: %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := frame.Bytes()[:frame.Len()/2]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.Stats().TailsTruncated.Load(); n != 1 {
		t.Fatalf("tails truncated = %d, want 1", n)
	}
	got := collectReplay(t, j2)
	if len(got) != 2 {
		t.Fatalf("replayed %d frames after torn tail, want 2", len(got))
	}
	// The truncation is physical: a third Open sees a clean segment.
	j3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if n := j3.Stats().TailsTruncated.Load(); n != 0 {
		t.Fatalf("second open truncated again (%d) — truncation not persisted", n)
	}
}

// TestEpochAnalyzedRotatesAndPurges: marking epochs analyzed rotates the
// active segment, persists the mark across restarts, skips analyzed frames
// on replay, and deletes segments once all their epochs are analyzed.
func TestEpochAnalyzedRotatesAndPurges(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Segment A: epochs 1 and 2 interleaved.
	j.Append(alignedMsg(0, 1))
	j.Append(alignedMsg(0, 2))
	if err := j.EpochAnalyzed(1); err != nil { // rotates; A={1,2} not purgeable
		t.Fatal(err)
	}
	// Segment B: epoch 3 only.
	j.Append(alignedMsg(0, 3))
	if j.Segments() != 1 {
		t.Fatalf("sealed segments = %d, want 1", j.Segments())
	}

	// Crash and recover: epoch 1 must not replay, epochs 2 and 3 must.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := collectReplay(t, j2)
	epochs := map[int]int{}
	for _, m := range got {
		e, _ := epochOf(m)
		epochs[e]++
	}
	if len(got) != 2 || epochs[2] != 1 || epochs[3] != 1 {
		t.Fatalf("replayed epochs %v, want one frame each for 2 and 3", epochs)
	}
	if n := j2.Stats().FramesSkipped.Load(); n != 1 {
		t.Fatalf("frames skipped = %d, want 1 (the analyzed epoch)", n)
	}

	// Analyzing 2 purges segment A (both its epochs done); analyzing 3
	// purges B.
	if err := j2.EpochAnalyzed(2); err != nil {
		t.Fatal(err)
	}
	if err := j2.EpochAnalyzed(3); err != nil {
		t.Fatal(err)
	}
	if j2.Segments() != 0 {
		t.Fatalf("sealed segments = %d after full analysis, want 0", j2.Segments())
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) != 0 {
		t.Fatalf("segment files left on disk after purge: %v", segs)
	}
}

// TestCleanRestartLeavesNoGarbage: repeated open/close cycles with no
// traffic must not accumulate empty segment files.
func TestCleanRestartLeavesNoGarbage(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		j, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) != 0 {
		t.Fatalf("empty segments accumulated: %v", segs)
	}
}

// TestClosedJournalRefusesWrites: operations after Close fail loudly rather
// than writing into a closed file.
func TestClosedJournalRefusesWrites(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(alignedMsg(0, 1)); err != ErrClosed {
		t.Fatalf("append on closed journal: %v", err)
	}
	if err := j.EpochAnalyzed(1); err != ErrClosed {
		t.Fatalf("mark on closed journal: %v", err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// FuzzSegmentScan feeds arbitrary bytes to the recovery pipeline — the
// prefix scanner and the resynchronizing rescue scan behind quarantine. The
// scanner must never panic, the reported valid prefix must lie inside the
// input and end on a frame boundary, and rescanning that prefix must find it
// whole (the truncation fixpoint — a second recovery pass never cuts
// further). The rescue scan over the post-corruption remainder must never
// panic either, must be deterministic, and on a clean input must have
// nothing to rescue.
func FuzzSegmentScan(f *testing.F) {
	var seed bytes.Buffer
	transport.Write(&seed, transport.AlignedDigest{RouterID: 1, Epoch: 2, Bitmap: testBitmap(7, 128)})
	whole := append([]byte(nil), seed.Bytes()...)
	transport.Write(&seed, transport.UnalignedDigest{Epoch: 3, Digest: unalignedMsg(4, 3).Digest})
	f.Add(seed.Bytes())
	f.Add(whole[:len(whole)/2])
	f.Add([]byte{})
	f.Add([]byte("DCS1 but not really a frame"))
	// Mid-segment corruption shapes (not just torn tails): decodable frames
	// on both sides of a corrupt gap, which the quarantine path must rescue.
	midFlip := append([]byte(nil), seed.Bytes()...)
	for i := len(whole) / 2; i < len(whole)/2+4 && i < len(midFlip); i++ {
		midFlip[i] ^= 0xFF // corrupt the first frame's payload; the second survives
	}
	f.Add(midFlip)
	gap := append([]byte(nil), whole...)
	gap = append(gap, []byte("garbage DCS1 garbage")...)
	gap = append(gap, whole...)
	f.Add(gap)
	truncated := append([]byte(nil), whole[:len(whole)-3]...)
	truncated = append(truncated, whole...)
	f.Add(truncated)
	f.Fuzz(func(t *testing.T, data []byte) {
		count := 0
		valid, torn, err := scanFrames(data, func(transport.Message) error {
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("scan error with non-failing fn: %v", err)
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside input of %d bytes", valid, len(data))
		}
		// A segment is a buffer, not a stream: it is torn exactly when bytes
		// are left past the last whole frame, a tail cut mid-frame included.
		if torn != (valid != len(data)) {
			t.Fatalf("torn=%v with valid=%d of %d bytes", torn, valid, len(data))
		}
		count2 := 0
		valid2, torn2, _ := scanFrames(data[:valid], func(transport.Message) error {
			count2++
			return nil
		})
		if torn2 || valid2 != valid || count2 != count {
			t.Fatalf("truncation not a fixpoint: valid %d→%d torn2=%v frames %d→%d",
				valid, valid2, torn2, count, count2)
		}
		// The rescue scan the quarantine path runs over everything past the
		// corruption point: no panics, deterministic, and every rescued
		// frame decodes (delivery happens only through transport.ReadFrame).
		rest := data[valid:]
		accept := func(transport.Message) error { return nil }
		rescued, err := resyncFrames(rest, accept)
		if err != nil {
			t.Fatalf("resync error with non-failing fn: %v", err)
		}
		rescued2, _ := resyncFrames(rest, accept)
		if rescued2 != rescued {
			t.Fatalf("resync not deterministic: %d then %d frames", rescued, rescued2)
		}
		if !torn && rescued != 0 {
			t.Fatalf("clean stream but resync past its end rescued %d frames", rescued)
		}
	})
}

// TestSpanWatermarkSurvivesReopen: Reported's span mark and watermark are
// durable and monotone, and the watermark retires only the span's start and
// what is older — the later epochs of a reported span are still replayed,
// because the spans ahead need their frames.
func TestSpanWatermarkSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if through, marks, span := j.Retired(); through != math.MinInt || len(marks) != 0 || span != math.MinInt {
		t.Fatalf("a fresh journal has books: through %d, marks %v, span %d", through, marks, span)
	}
	for e := 1; e <= 3; e++ {
		if err := j.Append(transport.AlignedDigest{RouterID: 1, Epoch: e, Bitmap: bitvec.New(64)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, span := range [][2]int{{0, 2}, {1, 3}, {0, 2}} {
		if err := j.Reported(span[0], span[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn last line, as a crash mid-mark leaves it, is ignored.
	f, err := os.OpenFile(filepath.Join(dir, analyzedName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("span "); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if through, marks, span := j.Retired(); through != 1 || len(marks) != 0 || span != 3 {
		t.Fatalf("books after reopen: through %d, marks %v, span %d; want through 1, no marks, span 3", through, marks, span)
	}
	var replayed []int
	if err := j.Replay(func(m transport.Message) error {
		replayed = append(replayed, m.(transport.AlignedDigest).Epoch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 || replayed[0] != 2 || replayed[1] != 3 {
		t.Fatalf("replayed epochs %v, want [2 3]: a span mark must not retire its epoch", replayed)
	}
}

// TestOldSidecarFormatLoads: an ANALYZED sidecar written before the
// watermark — bare epoch lines and "span E" lines only, as a node left it at
// -slide 1 and -slide 3 over six epochs — loads unchanged: Replay feeds
// exactly the frames of the epochs it does not mark, and the span mark
// survives.
func TestOldSidecarFormatLoads(t *testing.T) {
	for _, tc := range []struct {
		name, sidecar string
		replayed      []int
		span          int
	}{
		{"slide=1", "1\n2\n3\n4\n5\n6\n", []int{7, 7}, math.MinInt},
		{"slide=3", "span 1\nspan 2\nspan 3\n1\nspan 4\n2\nspan 5\n3\nspan 6\n4\n", []int{5, 5, 6, 6, 7, 7}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for e := 1; e <= 7; e++ {
				if err := j.Append(alignedMsg(1, e), alignedMsg(2, e)); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, analyzedName), []byte(tc.sidecar), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			var replayed []int
			for _, m := range collectReplay(t, j) {
				replayed = append(replayed, m.(transport.AlignedDigest).Epoch)
			}
			if !reflect.DeepEqual(replayed, tc.replayed) {
				t.Fatalf("replayed epochs %v, want %v", replayed, tc.replayed)
			}
			if n := j.Stats().FramesSkipped.Load(); n != int64(14-len(tc.replayed)) {
				t.Fatalf("skipped %d frames, want %d", n, 14-len(tc.replayed))
			}
			if _, _, span := j.Retired(); span != tc.span {
				t.Fatalf("span watermark %d, want %d", span, tc.span)
			}
		})
	}
}
