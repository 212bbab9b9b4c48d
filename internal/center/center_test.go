package center

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"dcstream/internal/aligned"
	"dcstream/internal/simulate"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

func TestCenterIgnoresSparseWindows(t *testing.T) {
	c := New(Config{})
	if _, err := c.Analyze(1); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("empty center analyzed: %v", err)
	}
	// One digest of each kind is not analyzable either.
	col, _ := aligned.NewCollector(aligned.CollectorConfig{Bits: 64, HashSeed: 1})
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: col.Digest()})
	if a, u := c.Pending(); a != 1 || u != 0 {
		t.Fatalf("pending %d,%d", a, u)
	}
	rep, err := c.Analyze(1)
	if err != nil || rep.Aligned != nil {
		t.Fatalf("single-router window analyzed: %+v, %v", rep, err)
	}
	// Analyze drops the window.
	if a, _ := c.Pending(); a != 0 {
		t.Fatal("window not dropped")
	}
}

// TestCenterAlignedWindow: a planted epoch is detected at its carriers, and
// the same background with nothing planted is not detected at all.
func TestCenterAlignedWindow(t *testing.T) {
	for _, content := range []int{12, 0} {
		testCenterAlignedWindow(t, content)
	}
}

func testCenterAlignedWindow(t *testing.T, content int) {
	res, err := simulate.RunAligned(simulate.AlignedScenario{
		Seed:    5,
		Routers: 32,
		Collector: aligned.CollectorConfig{
			Bits: 1 << 13, HashSeed: 3,
		},
		BackgroundPackets: 2500,
		SegmentSize:       536,
		ContentPackets:    content,
		Carriers:          []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{SubsetSize: 256})
	for r, d := range res.Digests {
		c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: d})
	}
	rep, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aligned == nil {
		t.Fatal("aligned window not analyzed")
	}
	if rep.Aligned.Routers != 32 {
		t.Fatalf("router count %d", rep.Aligned.Routers)
	}
	if content == 0 {
		if rep.Aligned.Detection.Found {
			t.Fatalf("false positive on pure background: routers %v", rep.Aligned.RouterIDs)
		}
		return
	}
	if !rep.Aligned.Detection.Found {
		t.Fatalf("aligned window not detected: %+v", rep.Aligned)
	}
	hit := 0
	for _, r := range rep.Aligned.RouterIDs {
		if r < 12 {
			hit++
		}
	}
	if hit < 10 {
		t.Fatalf("only %d/12 carriers identified", hit)
	}
}

// TestCenterRejectsMixedWidths: two widths in one window are never analyzed
// together. The tie goes to the smaller width, and the other router is left
// out and named; one digest is left, too few to correlate.
func TestCenterRejectsMixedWidths(t *testing.T) {
	c := New(Config{})
	a, _ := aligned.NewCollector(aligned.CollectorConfig{Bits: 64, HashSeed: 1})
	b, _ := aligned.NewCollector(aligned.CollectorConfig{Bits: 128, HashSeed: 1})
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: b.Digest()})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: a.Digest()})
	rep, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || !reflect.DeepEqual(rep.ExcludedRouters, []int{0}) || rep.Aligned != nil {
		t.Fatalf("mixed widths reported %+v, want Degraded, router 0 excluded, no aligned outcome", rep)
	}
}

// TestCenterUnalignedWindow: the ER test fires on a planted epoch and the
// core finder names its carriers; on the same background with nothing
// planted the test stays quiet and the core finder never runs.
func TestCenterUnalignedWindow(t *testing.T) {
	for _, content := range []int{60, 0} {
		testCenterUnalignedWindow(t, content)
	}
}

func testCenterUnalignedWindow(t *testing.T, content int) {
	cfg := unaligned.CollectorConfig{
		Groups: 4, ArraysPerGroup: 10, ArrayBits: 512,
		SegmentSize: 100, FragmentLen: 8, MinPayload: 40,
		HashSeed: 77,
	}
	res, err := simulate.RunUnaligned(simulate.UnalignedScenario{
		Seed:              6,
		Routers:           20,
		Collector:         cfg,
		BackgroundPackets: 183 * 4,
		ContentPackets:    content,
		Carriers:          []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{
		TargetP1:           0.25 / float64(20*4),
		ComponentThreshold: 10,
		Beta:               7,
		D:                  2,
		Parallelism:        2, // exercise the parallel correlation path
	})
	for _, d := range res.Digests {
		c.Ingest(transport.UnalignedDigest{Epoch: 1, Digest: d})
	}
	rep, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unaligned == nil {
		t.Fatal("unaligned window not analyzed")
	}
	if rep.Unaligned.Vertices != 80 {
		t.Fatalf("vertex count %d", rep.Unaligned.Vertices)
	}
	if content == 0 {
		if er := rep.Unaligned.ER; er.PatternDetected {
			t.Fatalf("false positive on pure background: largest component %d >= %d", er.LargestComponent, er.Threshold)
		}
		if len(rep.Unaligned.PatternVertices) != 0 || len(rep.Unaligned.Routers) != 0 {
			t.Fatal("core finder ran despite a negative ER test")
		}
		return
	}
	if !rep.Unaligned.ER.PatternDetected {
		t.Fatalf("unaligned window not detected: %+v", rep.Unaligned)
	}
	truth := map[int]bool{}
	for _, v := range res.CarrierVertices {
		truth[v.RouterID] = true
	}
	hit := 0
	for _, r := range rep.Unaligned.Routers {
		if truth[r] {
			hit++
		}
	}
	if hit < 7 {
		sort.Ints(rep.Unaligned.Routers)
		t.Fatalf("only %d/14 carrier routers identified: %v", hit, rep.Unaligned.Routers)
	}
}

func TestCenterMixedWindow(t *testing.T) {
	// Aligned and unaligned digests in one window are analyzed
	// independently.
	c := New(Config{SubsetSize: 64, ComponentThreshold: 50})
	rng := stats.NewRand(7)
	for r := 0; r < 4; r++ {
		ac, _ := aligned.NewCollector(aligned.CollectorConfig{Bits: 1 << 10, HashSeed: 2})
		bg, _ := trafficgen.Background(rng, trafficgen.BackgroundConfig{Packets: 300, SegmentSize: 64})
		for _, p := range bg {
			ac.Update(p)
		}
		c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: ac.Digest()})

		uc, _ := unaligned.NewCollector(unaligned.CollectorConfig{
			Groups: 2, ArraysPerGroup: 4, ArrayBits: 256,
			SegmentSize: 64, FragmentLen: 8, MinPayload: 30,
			HashSeed: 2, OffsetSeed: uint64(r),
		})
		for _, p := range bg {
			uc.Update(p)
		}
		c.Ingest(transport.UnalignedDigest{Epoch: 1, Digest: uc.Digest(r)})
	}
	rep, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aligned == nil || rep.Unaligned == nil {
		t.Fatal("mixed window did not produce both outcomes")
	}
	if rep.Aligned.Detection.Found || rep.Unaligned.ER.PatternDetected {
		t.Fatal("pure background produced a detection")
	}
}
