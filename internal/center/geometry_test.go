package center

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/simulate"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// geoFleet is the well-shaped traffic the hostile-geometry rows add their odd
// digests to: epoch 1's aligned digests, the same routers' epoch-2 digests at
// half the width (a fleet reconfiguration), and epoch 1's unaligned digests.
type geoFleet struct {
	aligned, reconf, unaligned []transport.Message
}

// alignedBits is the fleet's epoch-1 aligned width.
func (f geoFleet) alignedBits() int {
	return f.aligned[0].(transport.AlignedDigest).Bitmap.Len()
}

// unalignedShape is the fleet's unaligned geometry.
func (f geoFleet) unalignedShape() (groups, arrays, bits int) {
	d := f.unaligned[0].(transport.UnalignedDigest).Digest
	return len(d.Rows), len(d.Rows[0]), d.Rows[0][0].Len()
}

// geoBitmap is a fair-coin bitmap of n bits drawn from seed.
func geoBitmap(n int, seed uint64) *bitvec.Vector {
	v := bitvec.New(n)
	v.FillRandomHalf(func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	})
	return v
}

// geoUnaligned is router's unaligned digest for epoch 1 with every group
// holding arrays fair-coin arrays of bits bits.
func geoUnaligned(router, groups, arrays, bits int) transport.UnalignedDigest {
	d := &unaligned.Digest{RouterID: router, Rows: make([][]*bitvec.Vector, groups)}
	for g := range d.Rows {
		for a := 0; a < arrays; a++ {
			d.Rows[g] = append(d.Rows[g], geoBitmap(bits, uint64(1000*router+100*g+a)))
		}
	}
	return transport.UnalignedDigest{Epoch: 1, Digest: d}
}

// atEpoch restamps messages with another epoch.
func atEpoch(ms []transport.Message, e int) []transport.Message {
	out := make([]transport.Message, len(ms))
	for i, m := range ms {
		switch d := m.(type) {
		case transport.AlignedDigest:
			d.Epoch = e
			out[i] = d
		case transport.UnalignedDigest:
			d.Epoch = e
			out[i] = d
		}
	}
	return out
}

// routerIDs lists the routers of aligned digests, in order.
func routerIDs(ms []transport.Message) []int {
	var out []int
	for _, m := range ms {
		out = append(out, m.(transport.AlignedDigest).RouterID)
	}
	return out
}

// geometryRow is one hostile shape. build returns the row's feed, the same
// traffic without the odd digests, and the routers the report must name in
// ExcludedRouters. Odd digests go first where the row allows: no router's
// arrival order may fix a span's geometry.
type geometryRow struct {
	name  string
	slide int
	build func(f geoFleet) (feed, base []transport.Message, excluded []int)
}

// oddUnaligned is a row that adds one odd unaligned digest to the fleet.
func oddUnaligned(name string, odd func(groups, arrays, bits int) transport.UnalignedDigest) geometryRow {
	return geometryRow{name: name, build: func(f geoFleet) ([]transport.Message, []transport.Message, []int) {
		d := odd(f.unalignedShape())
		base := slices.Concat(f.aligned, f.unaligned)
		return slices.Concat([]transport.Message{d}, base), base, []int{d.Digest.RouterID}
	}}
}

var geometryRows = []geometryRow{
	{name: "aligned-odd-width", build: func(f geoFleet) ([]transport.Message, []transport.Message, []int) {
		odd := transport.AlignedDigest{RouterID: len(f.aligned), Epoch: 1, Bitmap: geoBitmap(f.alignedBits()/2, 1)}
		base := slices.Concat(f.aligned, f.unaligned)
		return slices.Concat([]transport.Message{odd}, base), base, []int{odd.RouterID}
	}},
	oddUnaligned("unaligned-odd-bits", func(groups, arrays, bits int) transport.UnalignedDigest {
		return geoUnaligned(40, groups, arrays, bits/2)
	}),
	oddUnaligned("unaligned-odd-k", func(groups, arrays, bits int) transport.UnalignedDigest {
		return geoUnaligned(41, groups, arrays/2, bits)
	}),
	{name: "unaligned-minority-outweighs", build: func(f geoFleet) ([]transport.Message, []transport.Message, []int) {
		// Five routers at another width, with more groups between them than
		// the whole modal fleet: they lose by digest count, and the vertices
		// they add to the epoch must not tighten the modal pairs' prune.
		groups, arrays, bits := f.unalignedShape()
		var feed []transport.Message
		var excluded []int
		for r := 50; r < 55; r++ {
			feed = append(feed, geoUnaligned(r, 5*groups, arrays, bits/2))
			excluded = append(excluded, r)
		}
		base := slices.Concat(f.aligned, f.unaligned)
		return slices.Concat(feed, base), base, excluded
	}},
	oddUnaligned("zero-array-group", func(groups, arrays, bits int) transport.UnalignedDigest {
		d := geoUnaligned(42, groups, arrays, bits)
		d.Digest.Rows[groups-1] = nil
		return d
	}),
	oddUnaligned("ragged-widths", func(groups, arrays, bits int) transport.UnalignedDigest {
		d := geoUnaligned(43, groups, arrays, bits)
		d.Digest.Rows[0][arrays-1] = geoBitmap(bits/2, 2)
		return d
	}),
	oddUnaligned("zero-group", func(groups, arrays, bits int) transport.UnalignedDigest {
		return geoUnaligned(44, 0, arrays, bits)
	}),
	{name: "aligned-resend-shape", build: func(f geoFleet) ([]transport.Message, []transport.Message, []int) {
		resend := transport.AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: geoBitmap(f.alignedBits()/2, 3)}
		base := slices.Concat(f.aligned, f.unaligned)
		return slices.Concat(base, []transport.Message{resend}), base, []int{1}
	}},
	{name: "unaligned-resend-shape", build: func(f geoFleet) ([]transport.Message, []transport.Message, []int) {
		// The resend drops the last group: were it stored, the epoch's
		// vertex count would shrink below what the tracker's prune assumed.
		d := f.unaligned[0].(transport.UnalignedDigest)
		shrunk := transport.UnalignedDigest{Epoch: 1, Digest: &unaligned.Digest{
			RouterID: d.Digest.RouterID, Rows: d.Digest.Rows[:len(d.Digest.Rows)-1]}}
		base := slices.Concat(f.aligned, f.unaligned)
		return slices.Concat(base, []transport.Message{shrunk}), base, []int{d.Digest.RouterID}
	}},
	{name: "slide-reconfiguration", slide: 2, build: func(f geoFleet) ([]transport.Message, []transport.Message, []int) {
		// Epoch 1 at the old width, epoch 2 at the new, half, width: a tie
		// goes to the smaller width, so span 2 analyzes epoch 2 and names
		// every router whose epoch-1 digest it left out.
		base := slices.Concat(f.reconf, atEpoch(f.unaligned, 2))
		return slices.Concat(f.aligned, base), base, routerIDs(f.aligned)
	}},
}

// simulatedFleet is 23 aligned routers at 8192 bits, then at 4096 bits with
// half the background, with a common content at routers 0..11 in both
// epochs, and 16 unaligned routers of 4 groups × 10
// arrays × 512 bits with a common content at routers 0..13.
func simulatedFleet(t testing.TB) geoFleet {
	t.Helper()
	var f geoFleet
	for _, e := range []int{1, 2} {
		bits := 1 << 13 >> (e - 1)
		res, err := simulate.RunAlignedEpochs(simulate.AlignedScenario{
			Seed:              5,
			Routers:           23,
			Collector:         aligned.CollectorConfig{Bits: bits, HashSeed: 3},
			BackgroundPackets: 2500 >> (e - 1),
			SegmentSize:       536,
		}, []simulate.EpochSpec{{Epoch: e, Carriers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, ContentPackets: 12}})
		if err != nil {
			t.Fatal(err)
		}
		msgs := []transport.Message{}
		for _, m := range res[e].DigestMessages(e) {
			msgs = append(msgs, m)
		}
		if e == 1 {
			f.aligned = msgs
		} else {
			f.reconf = msgs
		}
	}
	res, err := simulate.RunUnaligned(simulate.UnalignedScenario{
		Seed: 6, Routers: 16,
		Collector: unaligned.CollectorConfig{
			Groups: 4, ArraysPerGroup: 10, ArrayBits: 512,
			SegmentSize: 100, FragmentLen: 8, MinPayload: 40,
			HashSeed: 77,
		},
		BackgroundPackets: 183 * 4, ContentPackets: 60,
		Carriers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.DigestMessages(1) {
		f.unaligned = append(f.unaligned, m)
	}
	return f
}

// geoOutcome is what a drained center shows: its reports in close order, the
// error that stopped the drain (if any) and its counters.
type geoOutcome struct {
	Reports []WindowReport
	Err     string
	Stats   map[string]int64
}

// drainGeometry feeds msgs into a fresh center and closes every span with
// CloseNext(CloseDrain).
func drainGeometry(cfg Config, msgs []transport.Message) geoOutcome {
	c := New(cfg)
	c.Ingest(msgs...)
	var out geoOutcome
	for {
		rep, _, err := c.CloseNext(CloseDrain)
		if errors.Is(err, ErrNoCompleteEpoch) {
			break
		}
		if err != nil {
			out.Err = err.Error()
			break
		}
		out.Reports = append(out.Reports, rep)
	}
	out.Stats = counts(c.Stats())
	return out
}

// TestGeometryHostileRows: a digest of a shape the span cannot analyze with
// the rest (another width or k, an empty or ragged bank, a resend that changes
// shape, a fleet reconfiguring inside a sliding span) never costs the span its
// report. The span closes with no error, Degraded, naming the odd routers in
// ExcludedRouters, and its detection is exactly that of the same span fed
// without them — in both analysis modes, DeepEqual.
func TestGeometryHostileRows(t *testing.T) {
	f := simulatedFleet(t)
	for _, row := range geometryRows {
		t.Run(row.name, func(t *testing.T) {
			feed, base, excluded := row.build(f)
			cfg := Config{SubsetSize: 256, WindowSlide: row.slide, Analysis: AnalysisBatch}
			ref := drainGeometry(cfg, base)
			if ref.Err != "" || len(ref.Reports) == 0 {
				t.Fatalf("base traffic: %q, %d reports", ref.Err, len(ref.Reports))
			}
			want := ref.Reports[len(ref.Reports)-1]
			if want.Degraded || want.Aligned == nil || !want.Aligned.Detection.Found ||
				want.Unaligned == nil || !want.Unaligned.ER.PatternDetected {
				t.Fatalf("base traffic does not detect both contents cleanly: %+v", want)
			}
			var outs []geoOutcome
			for _, m := range []struct {
				name     string
				analysis AnalysisMode
			}{{"batch", AnalysisBatch}, {"incremental", AnalysisIncremental}} {
				mode := m.name
				cfg.Analysis = m.analysis
				out := drainGeometry(cfg, feed)
				outs = append(outs, out)
				if out.Err != "" || len(out.Reports) == 0 {
					t.Fatalf("%s: drain stopped at %q after %d reports", mode, out.Err, len(out.Reports))
				}
				got := out.Reports[len(out.Reports)-1]
				if !got.Degraded || !reflect.DeepEqual(got.ExcludedRouters, excluded) {
					t.Errorf("%s: Degraded %v, ExcludedRouters %v; want Degraded, %v", mode, got.Degraded, got.ExcludedRouters, excluded)
				}
				if !reflect.DeepEqual(got.Aligned, want.Aligned) || !reflect.DeepEqual(got.Unaligned, want.Unaligned) {
					t.Errorf("%s: detection differs from the span without the odd digests:\ngot  %+v %+v\nwant %+v %+v",
						mode, got.Aligned, got.Unaligned, want.Aligned, want.Unaligned)
				}
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Errorf("batch and incremental diverged:\nbatch       %+v\nincremental %+v", outs[0], outs[1])
			}
		})
	}
}

// tinyFleet is a geoFleet at fuzzing size: four aligned routers at 64 bits
// (32 after the reconfiguration) and three unaligned routers of 2 groups × 2
// arrays × 64 bits.
func tinyFleet() geoFleet {
	var f geoFleet
	for r := 0; r < 4; r++ {
		f.aligned = append(f.aligned, transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: geoBitmap(64, uint64(r))})
		f.reconf = append(f.reconf, transport.AlignedDigest{RouterID: r, Epoch: 2, Bitmap: geoBitmap(32, uint64(r))})
	}
	for r := 0; r < 3; r++ {
		f.unaligned = append(f.unaligned, geoUnaligned(r, 2, 2, 64))
	}
	return f
}

// FuzzCenterIngest feeds exactly what the wire admits — the fuzz bytes cut
// into frames by transport.ReadFrame, up to the first frame it rejects — into
// a batch and an incremental center at WindowSlide 1 and 2, and drains both.
// Every span must close with a report and no error, the two modes must agree
// DeepEqual, and every message fed must end in exactly one ledger. The seeds
// are the hostile-geometry rows at fuzzing size, each as one stream of
// frames (the encoder refuses the zero-array group beside full ones, so that
// row is seeded as the wire's form of it: every group empty).
func FuzzCenterIngest(f *testing.F) {
	fleet := tinyFleet()
	for _, row := range geometryRows {
		feed, _, _ := row.build(fleet)
		var seed []byte
		for _, m := range feed {
			seed, _ = transport.AppendFrame(seed, m)
		}
		f.Add(seed)
	}
	empty, _ := transport.AppendFrame(nil, transport.UnalignedDigest{Epoch: 1,
		Digest: &unaligned.Digest{RouterID: 9, Rows: [][]*bitvec.Vector{{}, {}}}})
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		var msgs []transport.Message
		for len(data) > 0 {
			m, rest, err := transport.ReadFrame(data)
			if err != nil {
				break
			}
			msgs, data = append(msgs, m), rest
		}
		for slide := 1; slide <= 2; slide++ {
			var outs []geoOutcome
			for _, mode := range []AnalysisMode{AnalysisBatch, AnalysisIncremental} {
				out := drainGeometry(Config{SubsetSize: 16, WindowSlide: slide, Analysis: mode}, msgs)
				if out.Err != "" {
					t.Fatalf("slide %d mode %d: %s", slide, mode, out.Err)
				}
				s := out.Stats
				if n := s["DigestsIngested"] + s["LateDigests"] + s["ReplacedDigests"] + s["RejectedDigests"] +
					s["UnknownMessages"] + s["MisroutedDigests"]; n != int64(len(msgs)) {
					t.Fatalf("slide %d mode %d: ledger holds %d of %d messages: %+v", slide, mode, n, len(msgs), s)
				}
				outs = append(outs, out)
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Fatalf("slide %d: batch and incremental diverged:\nbatch       %+v\nincremental %+v", slide, outs[0], outs[1])
			}
		}
	})
}
