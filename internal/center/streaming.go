package center

import (
	"fmt"
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
	// bit for bit. The incremental path itself falls back to it per window
	// when its state cannot reproduce the batch result (mixed widths,
	// malformed digests, a replacement that shrank a digest's group count).
	AnalysisBatch
)

// rowID names one aligned matrix row of a span analysis: the epoch and
// router whose bitmap fills it. Reference row order is epoch ascending,
// router ascending within the epoch — for a single-epoch span exactly the
// sorted-router order the batch path has always used.
type rowID struct{ epoch, router int }

// spanSnapshot is everything one analysis span needs, captured under c.mu at
// the moment the span closes, so the (possibly expensive) finalize runs
// without the lock and never races later ingest. Exactly one of
// alignedMatrix/alignedVecs is set when aligned digests are present, and at
// most one of unalignedEv/unalignedDigests: the incremental input when the
// maintained state is usable, the batch input otherwise.
type spanSnapshot struct {
	epoch    int   // closing epoch (the report's Epoch)
	start    int   // first epoch of the span: epoch-WindowSlide+1
	epochs   []int // span epochs that held data, ascending
	retired  []int // epochs whose windows were released with this span
	meta     windowMeta
	routers  int // distinct reporters across the span
	rejected int
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

// closeSpanLocked closes the span ending at epoch: snapshots the analysis
// inputs, retires every window that can no longer appear in a future span,
// and raises the floor so late digests cannot reopen them. In single-epoch
// mode (WindowSlide <= 1) exactly this window closes — an older buffered
// epoch keeps its own Analyze, as it always has. Caller holds c.mu.
func (c *Center) closeSpanLocked(epoch int) (*spanSnapshot, error) {
	w, ok := c.windows[epoch]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoWindow, epoch)
	}
	slide := c.cfg.WindowSlide
	if slide > 1 && c.spanClosedValid && epoch <= c.spanClosed {
		// A newer span already closed; spans end in order, so this one is
		// foreclosed even though its closing window still buffers digests
		// for the spans ahead of it.
		return nil, fmt.Errorf("%w: %d", ErrNoWindow, epoch)
	}
	s := &spanSnapshot{epoch: epoch, start: epoch - slide + 1, meta: c.metaLocked(epoch, w)}
	reporters := map[int]bool{}
	for e := s.start; e <= epoch; e++ {
		sw, ok := c.windows[e]
		if !ok {
			continue
		}
		s.epochs = append(s.epochs, e)
		s.rejected += sw.rejected
		if s.opened.IsZero() || sw.opened.Before(s.opened) {
			s.opened = sw.opened
		}
		for id := range sw.reporters() {
			reporters[id] = true
		}
	}
	s.routers = len(reporters)
	c.snapshotAlignedLocked(s)
	c.snapshotUnalignedLocked(s)

	if slide <= 1 {
		c.releaseLocked(epoch, w)
		c.raiseFloor(epoch)
		s.retired = []int{epoch}
		return s, nil
	}
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
	return s, nil
}

// RestoreSpanWatermark tells a fresh sliding-window center that the spans
// ending at or below epoch were reported by a previous life, before their
// still-buffered context epochs are replayed into it: those epochs then feed
// the spans ahead and are never reported a second time on less context than
// the first. A no-op outside sliding mode.
func (c *Center) RestoreSpanWatermark(epoch int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.WindowSlide > 1 && (!c.spanClosedValid || epoch > c.spanClosed) {
		c.spanClosed, c.spanClosedValid = epoch, true
	}
}

// snapshotAlignedLocked captures the span's aligned input. The incremental
// matrix is usable when every span accumulator is clean and they agree on
// width; otherwise the batch transposition runs on the buffered bitmaps,
// which also reproduces the batch path's mixed-width error. Caller holds
// c.mu.
func (c *Center) snapshotAlignedLocked(s *spanSnapshot) {
	total, width := 0, 0
	usable := c.cfg.Analysis == AnalysisIncremental
	var accs []*aligned.Accumulator
	var accEpochs []int
	for _, e := range s.epochs {
		sw := c.windows[e]
		total += len(sw.aligned)
		if !usable || len(sw.aligned) == 0 {
			continue
		}
		if sw.acc == nil || sw.acc.Mixed() {
			usable = false
			continue
		}
		if width == 0 {
			width = sw.acc.Width()
		}
		if sw.acc.Width() != width {
			usable = false
			continue
		}
		accs = append(accs, sw.acc)
		accEpochs = append(accEpochs, e)
	}
	if total < 2 {
		return
	}
	if !usable {
		// Batch input: slice-header copies only; stored bitmaps are
		// immutable (a replacement swaps the pointer).
		for _, e := range s.epochs {
			sw := c.windows[e]
			ids := make([]int, 0, len(sw.aligned))
			for id := range sw.aligned {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				s.alignedIDs = append(s.alignedIDs, rowID{epoch: e, router: id})
				s.alignedVecs = append(s.alignedVecs, sw.aligned[id])
			}
		}
		return
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
	if len(accs) == 1 && c.cfg.WindowSlide <= 1 {
		// The lone window is retired with this span, so the detector can run
		// on the accumulator's storage directly — zero copies on the hot
		// single-epoch path.
		s.alignedMatrix, s.alignedWeights = accs[0].Matrix()
		return
	}
	s.alignedMatrix, s.alignedWeights = aligned.StitchSpan(accs)
}

// snapshotUnalignedLocked captures the span's unaligned input: the tracker's
// evidence when it can reproduce the batch result, the buffered digests
// otherwise. Member order is epoch ascending, arrival order within the epoch
// — the order the batch path has always merged in. Caller holds c.mu.
func (c *Center) snapshotUnalignedLocked(s *spanSnapshot) {
	for _, e := range s.epochs {
		s.unalignedCount += len(c.windows[e].unaligned)
	}
	if s.unalignedCount < 2 {
		return
	}
	if c.tracker != nil {
		order := make([]unaligned.MemberRef, 0, s.unalignedCount)
		for _, e := range s.epochs {
			for _, d := range c.windows[e].unaligned {
				order = append(order, unaligned.MemberRef{Epoch: e, Router: d.RouterID})
			}
		}
		if ev := c.tracker.Snapshot(order); ev.Usable() {
			s.unalignedEv = ev
			return
		}
	}
	s.unalignedDigests = make([]*unaligned.Digest, 0, s.unalignedCount)
	for _, e := range s.epochs {
		s.unalignedDigests = append(s.unalignedDigests, c.windows[e].unaligned...)
	}
}

// analyzeSpan finalizes one detached span snapshot into its WindowReport.
// Runs without c.mu.
func (c *Center) analyzeSpan(s *spanSnapshot) (WindowReport, error) {
	start := time.Now()
	rep := WindowReport{
		Epoch:           s.epoch,
		Routers:         s.routers,
		Degraded:        s.meta.degraded || s.rejected > 0,
		MissingRouters:  s.meta.missing,
		RejectedDigests: s.rejected,
		SpanStart:       s.start,
		SpanEpochs:      s.epochs,
		RetiredEpochs:   s.retired,
	}
	if len(s.alignedIDs) >= 2 {
		var out *AlignedOutcome
		var err error
		if s.alignedMatrix != nil {
			out, err = c.analyzeAlignedMatrix(s.alignedIDs, s.alignedMatrix, s.alignedWeights, s.alignedRank)
		} else {
			out, err = c.analyzeAlignedRows(s.alignedIDs, s.alignedVecs)
		}
		if err != nil {
			return rep, err
		}
		rep.Aligned = out
	}
	if s.unalignedCount >= 2 {
		var out *UnalignedOutcome
		var err error
		if s.unalignedEv != nil {
			out, err = c.analyzeUnalignedEv(s.unalignedEv, s.unalignedCount, s.meta)
		} else {
			out, err = c.analyzeUnaligned(s.unalignedDigests, s.meta)
		}
		if err != nil {
			return rep, err
		}
		rep.Unaligned = out
	}
	c.cfg.Stats.EpochsAnalyzed.Add(1)
	if s.meta.degraded {
		c.cfg.Stats.DegradedEpochs.Add(1)
	}
	c.cfg.Stats.IngestToAnalyzeSeconds.Observe(time.Since(s.opened).Seconds())
	c.cfg.Stats.FinalizeSeconds.Observe(time.Since(start).Seconds())
	return rep, nil
}

// alignedConfig is the detector configuration for a matrix of the given
// width (the subset size cannot exceed the column count).
func (c *Center) alignedConfig(width int) aligned.DetectorConfig {
	subset := c.cfg.SubsetSize
	if subset > width {
		subset = width
	}
	acfg := aligned.RefinedConfig(subset)
	acfg.Workers = c.cfg.Parallelism
	return acfg
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

// analyzeAlignedRows is the batch aligned path: transpose the bitmaps (given
// in reference row order) and run the detector. No m′ rescaling is needed:
// aligned.Detect computes the non-natural-occurrence significance bound from
// the matrix it is given, so a degraded window's m′ rows already condition
// the verdict.
func (c *Center) analyzeAlignedRows(ids []rowID, vecs []*bitvec.Vector) (*AlignedOutcome, error) {
	width := vecs[0].Len()
	for _, v := range vecs {
		if v.Len() != width {
			return nil, fmt.Errorf("center: mixed aligned digest widths %d and %d", width, v.Len())
		}
	}
	det, err := aligned.Detect(aligned.FromDigests(vecs), c.alignedConfig(width))
	if err != nil {
		return nil, err
	}
	return alignedOutcome(ids, det), nil
}

// analyzeAlignedMatrix is the incremental aligned path: the matrix and
// column weights were maintained at ingest time, so finalize is the level
// scan alone. The detection's rows come back in slot space and are remapped
// to the reference order — after which the outcome is bit-identical to the
// batch path's.
func (c *Center) analyzeAlignedMatrix(ids []rowID, m *aligned.Matrix, weights, rank []int) (*AlignedOutcome, error) {
	det, err := aligned.DetectWithWeights(m, weights, c.alignedConfig(m.Cols()))
	if err != nil {
		return nil, err
	}
	aligned.RemapRows(&det, rank)
	return alignedOutcome(ids, det), nil
}

// analyzeUnalignedEv is the incremental unaligned path: replay the tracked
// pairwise evidence against the final λ tables instead of re-running the
// O(vertices²·k²) correlation passes. The λ-prune at ingest time kept a
// superset of every edge these tables admit (λ is monotone in p*, and the
// span's final vertex count can only have grown past the bound the prune
// used), so the replayed graphs — and everything computed from them — are
// bit-identical to the batch path's.
func (c *Center) analyzeUnalignedEv(ev *unaligned.SpanEvidence, digests int, meta windowMeta) (*UnalignedOutcome, error) {
	n := ev.NumVertices()
	return c.unalignedVerdict(n, ev.Bits(), ev.Arrays(), digests, meta, ev.Vertex,
		func(lt *unaligned.LambdaTable) (*graph.Graph, error) {
			g := graph.New(n)
			for _, e := range ev.Edges(lt) {
				g.AddEdge(int(e[0]), int(e[1]))
			}
			return g, nil
		})
}

// releaseLocked drops one epoch's buffered state and returns every
// accounted byte to the ledger: the retained digests, the window's aligned
// accumulator, and the tracker members and pair evidence touching the epoch.
// Caller holds c.mu.
func (c *Center) releaseLocked(epoch int, w *window) {
	delete(c.windows, epoch)
	c.bufferedBytes -= w.bytes
	if w.acc != nil {
		c.bufferedBytes -= w.acc.Bytes()
	}
	if c.tracker != nil {
		c.bufferedBytes += c.tracker.DropEpoch(epoch)
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
