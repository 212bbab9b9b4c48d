package center

import (
	"reflect"
	"testing"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/metrics"
	"dcstream/internal/simulate"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// streamStep is one event in a scripted center run: either a message to
// ingest or an analyze call (epoch -1 means AnalyzeLatestComplete).
type streamStep struct {
	msg     transport.Message
	analyze bool
	epoch   int
}

func msgStep(m transport.Message) streamStep { return streamStep{msg: m} }
func analyzeStep(epoch int) streamStep       { return streamStep{analyze: true, epoch: epoch} }

// streamOutcome is everything externally observable from a scripted run:
// every report and error in call order, the shed tombstones, and the final
// counts. Two centers that differ only in AnalysisMode must produce
// DeepEqual outcomes — that is the equivalence contract.
type streamOutcome struct {
	Reports []WindowReport
	Errors  []string
	Shed    []WindowReport
	Stats   map[string]int64
}

// counts reads every counter of s by field name, Closed by cause: two
// centers' books compare whole as these maps.
func counts(s *Stats) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i).Addr().Interface().(type) {
		case *metrics.Counter:
			out[v.Type().Field(i).Name] = f.Load()
		case *[numCloseCauses]metrics.Counter:
			for cause := range f {
				out["Closed."+CloseCause(cause).String()] = f[cause].Load()
			}
		}
	}
	return out
}

func runStream(cfg Config, steps []streamStep) streamOutcome {
	c := New(cfg)
	var out streamOutcome
	for _, st := range steps {
		if !st.analyze {
			c.Ingest(st.msg)
			continue
		}
		var rep WindowReport
		var err error
		if st.epoch < 0 {
			rep, err = c.AnalyzeLatestComplete()
		} else {
			rep, err = c.Analyze(st.epoch)
		}
		out.Reports = append(out.Reports, rep)
		if err != nil {
			out.Errors = append(out.Errors, err.Error())
		} else {
			out.Errors = append(out.Errors, "")
		}
	}
	out.Shed = c.TakeShedReports()
	out.Stats = counts(c.Stats())
	return out
}

// streamingScript builds one message/analyze script exercising every ingest
// policy the incremental state must honor: out-of-order epochs, DupKeepLast
// retraction (a resend with *different* content), same-content duplicates,
// late digests after close, explicit and latest-complete analyzes, and
// analyzes of already-closed epochs.
func streamingScript(t *testing.T) []streamStep {
	t.Helper()
	base := simulate.AlignedScenario{
		Seed:              5,
		Routers:           32,
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 3},
		BackgroundPackets: 2500,
		SegmentSize:       536,
	}
	epochs, err := simulate.RunAlignedEpochs(base, []simulate.EpochSpec{
		{Epoch: 1, Carriers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, ContentPackets: 12},
		{Epoch: 2},
		{Epoch: 3, Carriers: []int{4, 5, 6, 7, 8, 9, 10, 11}, ContentPackets: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	ucfg := unaligned.CollectorConfig{
		Groups: 4, ArraysPerGroup: 10, ArrayBits: 512,
		SegmentSize: 100, FragmentLen: 8, MinPayload: 40,
		HashSeed: 77,
	}
	uA, err := simulate.RunUnaligned(simulate.UnalignedScenario{
		Seed: 6, Routers: 16, Collector: ucfg,
		BackgroundPackets: 183 * 4, ContentPackets: 60,
		Carriers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	uB, err := simulate.RunUnaligned(simulate.UnalignedScenario{
		Seed: 9, Routers: 16, Collector: ucfg,
		BackgroundPackets: 183 * 4, ContentPackets: 0,
	})
	if err != nil {
		t.Fatal(err)
	}

	var steps []streamStep
	// Epochs 1 and 2 interleaved router by router, newest epoch first —
	// worst-case arrival order for the windowing.
	for r := 0; r < base.Routers; r++ {
		steps = append(steps,
			msgStep(epochs[2].DigestMessages(2)[r]),
			msgStep(epochs[1].DigestMessages(1)[r]))
	}
	for _, m := range uA.DigestMessages(1) {
		steps = append(steps, msgStep(m))
	}
	for _, m := range uB.DigestMessages(2) {
		steps = append(steps, msgStep(m))
	}
	steps = append(steps,
		// Duplicate resends. Router 3's epoch-1 aligned digest and router 5's
		// epoch-1 unaligned digest are resent with *different* content
		// (epoch 2's), so the replacement must retract the original
		// contribution from the incremental state. Router 7 resends
		// identical content — a retract-and-re-add that must be a perfect
		// no-op.
		msgStep(epochs[2].DigestMessages(1)[3]),
		msgStep(uB.DigestMessages(1)[5]),
		msgStep(epochs[1].DigestMessages(1)[7]),
		msgStep(uA.DigestMessages(1)[2]),
	)
	// Epoch 3 opens (evicting epoch 1 under a tight ring).
	for _, m := range epochs[3].DigestMessages(3) {
		steps = append(steps, msgStep(m))
	}
	steps = append(steps,
		analyzeStep(-1), // newest complete epoch
		// Late digests after the close above.
		msgStep(epochs[2].DigestMessages(2)[0]),
		msgStep(epochs[1].DigestMessages(1)[0]),
		analyzeStep(1),  // out-of-order explicit close (ErrNoWindow under a tight ring)
		analyzeStep(1),  // already closed: ErrNoWindow
		analyzeStep(3),  // forced close of the newest epoch
		analyzeStep(-1), // nothing left
	)
	return steps
}

// TestIncrementalMatchesBatch is the equivalence contract: for every config
// variant (defaults, ring eviction, quorum gating) and every worker
// count, the incremental center's externally observable outcome — reports,
// errors, tombstones, counters — is DeepEqual to the batch reference's.
func TestIncrementalMatchesBatch(t *testing.T) {
	steps := streamingScript(t)
	variants := []struct {
		name string
		cfg  Config
	}{
		{"defaults", Config{SubsetSize: 256}},
		{"tightring", Config{SubsetSize: 256, MaxEpochs: 2}},
		{"quorum", Config{SubsetSize: 256, MinRouters: 33, MaxWait: 1}},
	}
	for _, v := range variants {
		refCfg := v.cfg
		refCfg.Analysis = AnalysisBatch
		refCfg.Parallelism = 1
		ref := runStream(refCfg, steps)
		for _, workers := range []int{1, 4, 8} {
			for _, mode := range []AnalysisMode{AnalysisBatch, AnalysisIncremental} {
				cfg := v.cfg
				cfg.Analysis = mode
				cfg.Parallelism = workers
				got := runStream(cfg, steps)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s: mode %d workers %d diverged from batch/1 reference:\ngot  %+v\nwant %+v",
						v.name, mode, workers, got, ref)
				}
			}
		}
		if v.name == "defaults" {
			// Non-vacuity: the scripted content must actually be detected, and
			// the retraction paths must actually have fired.
			var rep1 *WindowReport
			for i := range ref.Reports {
				if ref.Errors[i] == "" && ref.Reports[i].Epoch == 1 {
					rep1 = &ref.Reports[i]
				}
			}
			if rep1 == nil {
				t.Fatal("defaults script never analyzed epoch 1")
			}
			if rep1.Aligned == nil || !rep1.Aligned.Detection.Found {
				t.Fatalf("epoch 1 aligned content not detected: %+v", rep1.Aligned)
			}
			if rep1.Unaligned == nil || !rep1.Unaligned.ER.PatternDetected {
				t.Fatalf("epoch 1 unaligned content not detected: %+v", rep1.Unaligned)
			}
			if ref.Stats["ReplacedDigests"] < 4 {
				t.Fatalf("script replaced only %d digests, retraction untested", ref.Stats["ReplacedDigests"])
			}
			if ref.Stats["LateDigests"] == 0 {
				t.Fatal("script produced no late digests")
			}
		}
	}
}

// TestSlidingWindowFindsStraddlingContent plants one common content across an
// epoch boundary: epoch 1's carriers are routers 0-6, epoch 2's are routers
// 8-14, and neither epoch alone has enough carriers to cross the component
// threshold. Classic per-epoch analysis misses it in both epochs; a
// WindowSlide=2 center joins the two halves inside the [1,2] span and detects
// it — in both analysis modes, identically.
func TestSlidingWindowFindsStraddlingContent(t *testing.T) {
	base := simulate.UnalignedScenario{
		Seed:    11,
		Routers: 16,
		Collector: unaligned.CollectorConfig{
			Groups: 4, ArraysPerGroup: 10, ArrayBits: 512,
			SegmentSize: 100, FragmentLen: 8, MinPayload: 40,
			HashSeed: 7,
		},
		BackgroundPackets: 183 * 4,
		ContentPackets:    60,
	}
	scA := base
	scA.Carriers = []int{0, 1, 2, 3, 4, 5, 6}
	scB := base
	scB.Carriers = []int{8, 9, 10, 11, 12, 13, 14}
	// Same Seed means RunUnaligned draws the same content stream for both
	// scenarios — the two epochs really do carry the same content, held by
	// disjoint router sets.
	resA, err := simulate.RunUnaligned(scA)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := simulate.RunUnaligned(scB)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(c *Center) {
		for _, m := range resA.DigestMessages(1) {
			c.Ingest(m)
		}
		for _, m := range resB.DigestMessages(2) {
			c.Ingest(m)
		}
	}

	// Per-epoch baseline: each half is below threshold on its own.
	plain := New(Config{})
	ingest(plain)
	for _, e := range []int{1, 2} {
		rep, err := plain.Analyze(e)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Unaligned == nil {
			t.Fatalf("epoch %d missing unaligned analysis", e)
		}
		if rep.Unaligned.ER.PatternDetected {
			t.Fatalf("epoch %d detected the half-content alone (component %d >= %d): sliding test is vacuous",
				e, rep.Unaligned.ER.LargestComponent, rep.Unaligned.ER.Threshold)
		}
	}

	analyzeSliding := func(mode AnalysisMode) []WindowReport {
		c := New(Config{WindowSlide: 2, Analysis: mode})
		ingest(c)
		var reps []WindowReport
		for _, e := range []int{1, 2} {
			rep, err := c.Analyze(e)
			if err != nil {
				t.Fatalf("sliding mode %d Analyze(%d): %v", mode, e, err)
			}
			reps = append(reps, rep)
		}
		return reps
	}
	inc := analyzeSliding(AnalysisIncremental)
	batch := analyzeSliding(AnalysisBatch)
	if !reflect.DeepEqual(inc, batch) {
		t.Fatalf("sliding outcomes diverged:\nincremental %+v\nbatch       %+v", inc, batch)
	}

	span := inc[1]
	if span.SpanStart != 1 || !reflect.DeepEqual(span.SpanEpochs, []int{1, 2}) {
		t.Fatalf("span [1,2] not assembled: start %d epochs %v", span.SpanStart, span.SpanEpochs)
	}
	if !reflect.DeepEqual(span.RetiredEpochs, []int{1}) {
		t.Fatalf("span retired %v, want just epoch 1 (epoch 2 lives on in the next span)", span.RetiredEpochs)
	}
	if span.Unaligned == nil || !span.Unaligned.ER.PatternDetected {
		t.Fatalf("straddling content not detected by the sliding span: %+v", span.Unaligned)
	}
	// The implicated routers must straddle the boundary: some from each half.
	lo, hi := false, false
	for _, r := range span.Unaligned.Routers {
		if r <= 6 {
			lo = true
		}
		if r >= 8 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatalf("pattern routers %v do not span both epochs' carriers", span.Unaligned.Routers)
	}
	// And the first span (epoch 1 alone) must still miss it.
	if inc[0].Unaligned != nil && inc[0].Unaligned.ER.PatternDetected {
		t.Fatal("span [1] detected the half-content alone")
	}
}

// TestBudgetCountsAccumulatorBytes is the memory-ledger regression test for
// incremental mode: the aligned accumulator and the tracker evidence are
// charged against MemoryBudgetBytes, shedding releases them, and analysis
// drains the ledger to exactly zero — buffered + shed = ingested throughout.
func TestBudgetCountsAccumulatorBytes(t *testing.T) {
	const width = 1024
	wideBitmap := func(seed uint64) *bitvec.Vector {
		v := bitvec.New(width)
		s := seed
		v.FillRandomHalf(func() uint64 {
			s = s*6364136223846793005 + 1442695040888963407
			return s
		})
		return v
	}
	epochMsgs := func(e int) []transport.Message {
		msgs := make([]transport.Message, 0, 4)
		for r := 0; r < 4; r++ {
			msgs = append(msgs, transport.AlignedDigest{
				RouterID: r, Epoch: e, Bitmap: wideBitmap(uint64(e*100 + r)),
			})
		}
		return msgs
	}
	footprint := func(mode AnalysisMode) int64 {
		c := New(Config{Analysis: mode, MaxEpochs: 8})
		for _, m := range epochMsgs(1) {
			c.Ingest(m)
		}
		return c.BufferedBytes()
	}
	incOne := footprint(AnalysisIncremental)
	batchOne := footprint(AnalysisBatch)
	if incOne <= batchOne {
		t.Fatalf("incremental footprint %d not above digest-only footprint %d: accumulator bytes unaccounted",
			incOne, batchOne)
	}

	// A budget that holds one epoch's accumulator but not two: epoch 2's
	// arrival must shed epoch 1 whole — digests *and* accumulator — leaving
	// exactly one epoch's footprint resident.
	budget := incOne + incOne/2
	c := New(Config{MaxEpochs: 8, MemoryBudgetBytes: budget})
	for _, m := range epochMsgs(1) {
		c.Ingest(m)
	}
	for _, m := range epochMsgs(2) {
		c.Ingest(m)
	}
	books := c.Stats()
	if books.ShedEpochs.Load() != 1 || books.ShedDigests.Load() != 4 {
		t.Fatalf("shed %d epochs / %d digests, want 1/4", books.ShedEpochs.Load(), books.ShedDigests.Load())
	}
	if got := c.BufferedBytes(); got > budget {
		t.Fatalf("buffered %d exceeds budget %d after shedding", got, budget)
	}
	if got := c.BufferedBytes(); got != incOne {
		t.Fatalf("buffered %d after shed, want exactly one epoch's footprint %d: shed epoch's state not fully released",
			got, incOne)
	}
	a, u := c.Pending()
	if int64(a+u)+books.ShedDigests.Load() != books.DigestsIngested.Load() {
		t.Fatalf("ledger broken: buffered %d + shed %d != ingested %d", a+u, books.ShedDigests.Load(), books.DigestsIngested.Load())
	}
	reps := c.TakeShedReports()
	if len(reps) != 1 || !reps[0].Shed || reps[0].Epoch != 1 || reps[0].ShedDigests != 4 {
		t.Fatalf("shed tombstones %+v, want one for epoch 1 with 4 digests", reps)
	}
	if _, err := c.Analyze(2); err != nil {
		t.Fatal(err)
	}
	if got := c.BufferedBytes(); got != 0 {
		t.Fatalf("buffered %d after the last epoch analyzed, want 0: accumulator bytes leaked", got)
	}

	// The unaligned tracker's members and pair evidence are charged and
	// released the same way. Correlated digests (a shared group vector)
	// guarantee the evidence is non-empty.
	shared := smallBitmap(42)
	mkU := func(router int, seed uint64) transport.Message {
		d := &unaligned.Digest{RouterID: router, Rows: [][]*bitvec.Vector{
			{shared, shared},
			{smallBitmap(seed), smallBitmap(seed + 1)},
		}}
		return transport.UnalignedDigest{Epoch: 1, Digest: d}
	}
	ci := New(Config{MaxEpochs: 8})
	cb := New(Config{Analysis: AnalysisBatch, MaxEpochs: 8})
	for r := 0; r < 4; r++ {
		ci.Ingest(mkU(r, uint64(500+10*r)))
		cb.Ingest(mkU(r, uint64(500+10*r)))
	}
	if ib, bb := ci.BufferedBytes(), cb.BufferedBytes(); ib <= bb {
		t.Fatalf("incremental unaligned footprint %d not above digest-only %d: tracker bytes unaccounted", ib, bb)
	}
	if _, err := ci.Analyze(1); err != nil {
		t.Fatal(err)
	}
	if got := ci.BufferedBytes(); got != 0 {
		t.Fatalf("buffered %d after unaligned analyze, want 0: tracker bytes leaked", got)
	}
}

// TestWideSlideCostsWhatIsBuffered: Validate admits any WindowSlide up to
// 2³¹−1, and a span that wide buffers no more than the epochs that arrive, so
// ingest and close must cost what is buffered, not the width of the span or
// the tracker's reach. Two routers' unaligned digests over two epochs ingest
// and drain at WindowSlide 2³⁰ in both analysis modes.
func TestWideSlideCostsWhatIsBuffered(t *testing.T) {
	for _, mode := range []AnalysisMode{AnalysisIncremental, AnalysisBatch} {
		c := New(Config{SubsetSize: 64, Analysis: mode, WindowSlide: 1 << 30})
		done := make(chan int)
		go func() {
			for e := 1; e <= 2; e++ {
				c.Ingest(unalignedMsg(1, e), unalignedMsg(2, e))
			}
			reports := 0
			for {
				if _, _, err := c.CloseNext(CloseDrain); err != nil {
					break
				}
				reports++
			}
			done <- reports
		}()
		select {
		case n := <-done:
			if n != 2 {
				t.Fatalf("mode %d: drained %d reports, want 2", mode, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("mode %d: four digests at WindowSlide 2^30 did not ingest and drain in 10 s", mode)
		}
	}
}
