package center

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/graph"
	"dcstream/internal/unaligned"
)

// AnalysisMode picks how a window's analysis inputs are produced.
type AnalysisMode int

const (
	// AnalysisIncremental (the zero value) maintains the analysis state as
	// digests arrive — the aligned column matrix and popcounts in an
	// accumulator, the unaligned pairwise correlation evidence in a tracker —
	// so Analyze is a cheap finalize over already-built state.
	AnalysisIncremental AnalysisMode = iota
	// AnalysisBatch rebuilds everything from the buffered digests at analyze
	// time: the reference implementation the incremental path must match
	// bit for bit.
	AnalysisBatch
)

// rowID names one aligned matrix row of a span analysis: the epoch and
// router whose bitmap fills it. Reference row order is epoch ascending,
// router ascending within the epoch — for a single-epoch span exactly the
// sorted-router order the batch path has always used.
type rowID struct{ epoch, router int }

// spanSnapshot is everything one analysis span needs, captured under c.mu at
// the moment the span closes, so the (possibly expensive) finalize runs
// without the lock and never races later ingest. When two or more digests of
// a kind share the span's modal geometry, one input of that kind is set:
// alignedMatrix or unalignedEv in AnalysisIncremental mode, alignedVecs or
// unalignedDigests in AnalysisBatch mode.
type spanSnapshot struct {
	epoch    int   // closing epoch (the report's Epoch)
	start    int   // first epoch of the span: epoch-WindowSlide+1
	epochs   []int // span epochs that held data, ascending
	retired  []int // epochs whose windows were released with this span
	meta     windowMeta
	routers  int // distinct reporters across the span
	rejected int
	excluded []int     // routers with a digest left out for its shape, ascending
	opened   time.Time // earliest first-digest arrival among span windows

	alignedIDs     []rowID // reference row order
	alignedMatrix  *aligned.Matrix
	alignedWeights []int
	alignedRank    []int // slot-concatenation index -> reference row
	alignedVecs    []*bitvec.Vector

	unalignedCount   int
	unalignedEv      *unaligned.SpanEvidence
	unalignedDigests []*unaligned.Digest
}

// closeSpanLocked closes the span [epoch-WindowSlide+1, epoch] at every width:
// snapshots the analysis inputs, retires every window at or below the span's
// start (no future span needs them; at WindowSlide 1, the epoch itself),
// raises the floor there so late digests cannot reopen them, and moves the
// span watermark to epoch. Open spans inside it are foreclosed. The span must
// be open, with no open span older than its start (closableLocked). Caller
// holds c.mu.
func (c *Center) closeSpanLocked(epoch int) *spanSnapshot {
	s := &spanSnapshot{epoch: epoch, start: epoch - c.cfg.WindowSlide + 1, meta: c.metaLocked(epoch, c.windows[epoch])}
	reporters, excluded := map[int]bool{}, map[int]bool{}
	// The buffered windows, not the span's width: WindowSlide may be far
	// wider than anything buffered.
	for e := range c.windows {
		if e >= s.start && e <= epoch {
			s.epochs = append(s.epochs, e)
		}
	}
	sort.Ints(s.epochs)
	for _, e := range s.epochs {
		sw := c.windows[e]
		s.rejected += sw.rejected
		if s.opened.IsZero() || sw.opened.Before(s.opened) {
			s.opened = sw.opened
		}
		for id := range sw.reporters() {
			reporters[id] = true
		}
		for id := range sw.excluded {
			excluded[id] = true
		}
	}
	s.routers = len(reporters)
	c.snapshotAlignedLocked(s, excluded)
	c.snapshotUnalignedLocked(s, excluded)
	for id := range excluded {
		s.excluded = append(s.excluded, id)
	}
	sort.Ints(s.excluded)

	for e := range c.windows {
		if e <= s.start {
			s.retired = append(s.retired, e)
		}
	}
	sort.Ints(s.retired)
	for _, e := range s.retired {
		c.releaseLocked(e, c.windows[e])
	}
	c.raiseFloor(s.start)
	c.spanClosed, c.spanClosedValid = epoch, true
	return s
}

// RestoreRetired tells a fresh center, before a journal's replay, what a
// previous life retired. Every epoch at or below through, and each of marks
// (shed or evicted, above it), is closed: a resend reaching this life live is
// late, as it was in that life, instead of reopening an epoch already
// reported or given up. span is the newest span reported with its epoch kept
// as context; the replay brings its still-buffered epochs back to feed the
// spans ahead, never to be reported again on less context than the first.
// math.MinInt stands for no watermark and no span.
func (c *Center) RestoreRetired(through int, marks []int, span int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range marks {
		c.evicted[e] = true
	}
	if through != math.MinInt {
		c.raiseFloor(through)
	}
	if span != math.MinInt && (!c.spanClosedValid || span > c.spanClosed) {
		c.spanClosed, c.spanClosedValid = span, true
	}
}

// geometry is the shape digests of one kind must share to be analyzed
// together: an aligned digest's bitmap width (arrays 0), an unaligned
// digest's array width and arrays per group.
type geometry struct{ bits, arrays int }

// modal returns the geometry with the most digests in count; a tie goes to
// the smaller, bits first. The choice depends on neither arrival order nor
// analysis mode.
func modal(count map[geometry]int) geometry {
	var best geometry
	for g, n := range count {
		if b := count[best]; n > b || n == b && (g.bits < best.bits || g.bits == best.bits && g.arrays < best.arrays) {
			best = g
		}
	}
	return best
}

// unalignedGeometry is d's geometry, or false when d is no shape the center
// can analyze: no groups, a group with no arrays, groups with different
// array counts, or arrays of different or zero widths.
func unalignedGeometry(d *unaligned.Digest) (geometry, bool) {
	if len(d.Rows) == 0 || len(d.Rows[0]) == 0 {
		return geometry{}, false
	}
	g := geometryOf(d)
	for _, rows := range d.Rows {
		if len(rows) != g.arrays {
			return g, false
		}
		for _, r := range rows {
			if r.Len() != g.bits {
				return g, false
			}
		}
	}
	return g, g.bits > 0
}

// geometryOf is the geometry of a digest admission accepted.
func geometryOf(d *unaligned.Digest) geometry {
	return geometry{bits: d.Rows[0][0].Len(), arrays: len(d.Rows[0])}
}

// snapshotAlignedLocked captures the span's aligned input — the bitmaps of
// the modal width: the accumulators' matrix, or the bitmaps themselves in
// AnalysisBatch mode — and adds every other width's routers to excluded.
// Caller holds c.mu.
func (c *Center) snapshotAlignedLocked(s *spanSnapshot, excluded map[int]bool) {
	count := map[geometry]int{}
	for _, e := range s.epochs {
		for _, bm := range c.windows[e].aligned {
			count[geometry{bits: bm.Len()}]++
		}
	}
	width := modal(count).bits
	for _, e := range s.epochs {
		for id, bm := range c.windows[e].aligned {
			if bm.Len() != width {
				excluded[id] = true
			}
		}
	}
	if count[geometry{bits: width}] < 2 {
		return
	}
	if c.cfg.Analysis == AnalysisBatch {
		// Slice-header copies only; stored bitmaps are immutable (a
		// replacement swaps the pointer).
		for _, e := range s.epochs {
			sw := c.windows[e]
			var ids []int
			for id, bm := range sw.aligned {
				if bm.Len() == width {
					ids = append(ids, id)
				}
			}
			sort.Ints(ids)
			for _, id := range ids {
				s.alignedIDs = append(s.alignedIDs, rowID{epoch: e, router: id})
				s.alignedVecs = append(s.alignedVecs, sw.aligned[id])
			}
		}
		return
	}
	var accs []*aligned.Accumulator
	var accEpochs []int
	for _, e := range s.epochs {
		if acc := c.windows[e].acc[width]; acc != nil && acc.Rows() > 0 {
			accs = append(accs, acc)
			accEpochs = append(accEpochs, e)
		}
	}
	// The accumulators hold rows in arrival ("slot") order; build the
	// reference ids and the slot→reference rank so the detection's Rows can
	// be translated afterwards (everything else in a Detection is invariant
	// under row permutation).
	refBase := 0
	for a, acc := range accs {
		slotRouters := acc.SlotRouters()
		sorted := append([]int(nil), slotRouters...)
		sort.Ints(sorted)
		pos := make(map[int]int, len(sorted))
		for i, r := range sorted {
			pos[r] = i
			s.alignedIDs = append(s.alignedIDs, rowID{epoch: accEpochs[a], router: r})
		}
		for _, r := range slotRouters {
			s.alignedRank = append(s.alignedRank, refBase+pos[r])
		}
		refBase += len(sorted)
	}
	if len(accs) == 1 && accEpochs[0] <= s.start {
		// The lone aligned window retires with this span (at WindowSlide 1,
		// always), so the detector reads its accumulator in place, no copy.
		s.alignedMatrix, s.alignedWeights = accs[0].Matrix()
		return
	}
	s.alignedMatrix, s.alignedWeights = aligned.StitchSpan(accs)
}

// snapshotUnalignedLocked captures the span's unaligned input: the digests of
// the modal geometry — the tracker's evidence for them, or the digests
// themselves in AnalysisBatch mode — and adds every other geometry's routers
// to excluded. Member order is epoch ascending, arrival order within the
// epoch — the order the batch path has always merged in. Caller holds c.mu.
func (c *Center) snapshotUnalignedLocked(s *spanSnapshot, excluded map[int]bool) {
	count := map[geometry]int{}
	for _, e := range s.epochs {
		for _, d := range c.windows[e].unaligned {
			count[geometryOf(d)]++
		}
	}
	geo := modal(count)
	s.unalignedCount = count[geo]
	var order []unaligned.MemberRef
	for _, e := range s.epochs {
		for _, d := range c.windows[e].unaligned {
			if geometryOf(d) != geo {
				excluded[d.RouterID] = true
			} else if c.trackers == nil {
				s.unalignedDigests = append(s.unalignedDigests, d)
			} else {
				order = append(order, unaligned.MemberRef{Epoch: e, Router: d.RouterID})
			}
		}
	}
	if len(order) >= 2 {
		s.unalignedEv = c.trackers[geo].Snapshot(order)
	}
}

// analyzeSpan finalizes one detached span snapshot into its WindowReport.
// Runs without c.mu.
func (c *Center) analyzeSpan(s *spanSnapshot) WindowReport {
	start := time.Now()
	rep := WindowReport{
		Epoch:           s.epoch,
		Routers:         s.routers,
		Degraded:        s.meta.degraded || s.rejected > 0 || len(s.excluded) > 0,
		MissingRouters:  s.meta.missing,
		ExcludedRouters: s.excluded,
		RejectedDigests: s.rejected,
		SpanStart:       s.start,
		SpanEpochs:      s.epochs,
		RetiredEpochs:   s.retired,
	}
	if len(s.alignedIDs) >= 2 {
		if s.alignedMatrix == nil {
			// The batch path: transpose the bitmaps, in reference row order.
			s.alignedMatrix = aligned.FromDigests(s.alignedVecs)
			s.alignedWeights = s.alignedMatrix.ColumnWeights()
		}
		rep.Aligned = c.analyzeAligned(s)
	}
	if s.unalignedEv != nil {
		rep.Unaligned = c.analyzeUnalignedEv(s)
	} else if s.unalignedCount >= 2 {
		rep.Unaligned = c.analyzeUnaligned(s)
	}
	c.stats.EpochsAnalyzed.Add(1)
	if s.meta.degraded {
		c.stats.DegradedEpochs.Add(1)
	}
	c.stats.IngestToAnalyzeSeconds.Observe(time.Since(s.opened).Seconds())
	c.stats.FinalizeSeconds.Observe(time.Since(start).Seconds())
	return rep
}

// mustAnalyze panics, naming the span, on an error from an analysis library
// call. Config.Validate and admission's shape checks leave none reachable, so
// one is a bug in the center, never a span to lose quietly.
func mustAnalyze(epoch int, err error) {
	if err != nil {
		panic(fmt.Sprintf("center: span %d: analysis failed on a validated config: %v", epoch, err))
	}
}

// alignedOutcome translates a detection's rows to router ids through the
// reference row order.
func alignedOutcome(ids []rowID, det aligned.Detection) *AlignedOutcome {
	out := &AlignedOutcome{Routers: len(ids), Detection: det}
	seen := map[int]bool{}
	for _, row := range det.Rows {
		if r := ids[row].router; !seen[r] {
			seen[r] = true
			out.RouterIDs = append(out.RouterIDs, r)
		}
	}
	sort.Ints(out.RouterIDs)
	return out
}

// analyzeAligned runs the detector on the span's matrix and column weights.
// In incremental mode they were maintained at ingest time, so finalize is the
// level scan alone, and the detection's rows come back in slot space and are
// remapped through rank to the reference order — after which the outcome is
// bit-identical to the batch path's, whose rows are in reference order
// already (nil rank). No m′ rescaling is needed: the detector computes the
// non-natural-occurrence significance bound from the matrix it is given, so a
// degraded window's m′ rows already condition the verdict.
func (c *Center) analyzeAligned(s *spanSnapshot) *AlignedOutcome {
	m := s.alignedMatrix
	// The subset size cannot exceed the column count.
	acfg := aligned.RefinedConfig(min(c.cfg.SubsetSize, m.Cols()))
	acfg.Workers = c.cfg.Parallelism
	det, err := aligned.DetectWithWeights(m, s.alignedWeights, acfg)
	mustAnalyze(s.epoch, err)
	if s.alignedRank != nil {
		aligned.RemapRows(&det, s.alignedRank)
	}
	return alignedOutcome(s.alignedIDs, det)
}

// analyzeUnalignedEv is the incremental unaligned path: replay the tracked
// pairwise evidence against the final λ tables instead of re-running the
// O(vertices²·k²) correlation passes. The λ-prune at ingest time kept a
// superset of every edge these tables admit (λ is monotone in p*, and the
// span's final vertex count can only have grown past the bound the prune
// used), so the replayed graphs — and everything computed from them — are
// bit-identical to the batch path's.
func (c *Center) analyzeUnalignedEv(s *spanSnapshot) *UnalignedOutcome {
	ev, n := s.unalignedEv, s.unalignedEv.NumVertices()
	return c.unalignedVerdict(s, n, ev.Bits(), ev.Arrays(), ev.Vertex,
		func(lt *unaligned.LambdaTable) *graph.Graph {
			g := graph.New(n)
			for _, e := range ev.Edges(lt) {
				g.AddEdge(int(e[0]), int(e[1]))
			}
			return g
		})
}

// releaseLocked drops one epoch's buffered state and returns every
// accounted byte to the ledger: the retained digests, the window's aligned
// accumulators, and the tracker members and pair evidence touching the
// epoch. A tracker left holding nothing is dropped with it. Caller holds
// c.mu.
func (c *Center) releaseLocked(epoch int, w *window) {
	delete(c.windows, epoch)
	c.bufferedBytes -= w.bytes
	for _, acc := range w.acc {
		c.bufferedBytes -= acc.Bytes()
	}
	for g, tr := range c.trackers {
		if c.bufferedBytes += tr.DropEpoch(epoch); tr.Bytes() == 0 {
			delete(c.trackers, g)
		}
	}
}

// enforceBudgetLocked re-checks the memory budget after tracker growth.
// Unaligned admission cannot pre-estimate the correlation evidence a digest
// will produce (it depends on content), so under ShedOldest the budget is
// enforced after the fact: shed old epochs until the ledger fits, never the
// epoch just written. Under RejectNew a transient evidence overage stands —
// the very next admission sees the ledger over budget and refuses, so the
// overshoot is bounded by one digest's evidence. Caller holds c.mu.
func (c *Center) enforceBudgetLocked(epoch int) {
	if c.cfg.MemoryBudgetBytes <= 0 || c.cfg.Shedding != ShedOldest {
		return
	}
	for c.bufferedBytes > c.cfg.MemoryBudgetBytes {
		victim := c.victimLocked(epoch)
		if victim < 0 {
			return
		}
		c.shedLocked(victim)
	}
}
