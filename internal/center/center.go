// Package center implements the analysis-center role of Figure 2 as a
// reusable library: accumulate digests per measurement epoch, then analyze a
// closed epoch — the aligned ASID detector over stacked bitmaps, the
// unaligned ER test plus core finder over merged array banks, or both.
// internal/daemon wraps this in the dcsd daemon; tests and embedders drive it
// directly.
//
// Windowing is epoch-correct: digests are keyed by the Epoch field their
// collector stamped, never by arrival time, so a slow collector's epoch-3
// bitmap is analyzed with the other routers' epoch-3 bitmaps even when it
// arrives after everyone's epoch-4 digests (§V-B.1 — correlating bitmaps
// across epochs degrades detection). A bounded ring of recent epochs absorbs
// reordering; digests for epochs that already left the ring are counted late
// and dropped, and a duplicate (a collector resending after a reconnect) is
// counted and replaces the earlier digest of its own epoch, never another
// epoch's state. The close policy — when an epoch is over — lives here too:
// Tick and CloseNext (DESIGN §14).
package center

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/graph"
	"dcstream/internal/metrics"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// ErrNoWindow reports an Analyze call for an epoch the center holds no
// digests for (never seen, already analyzed, or evicted).
var ErrNoWindow = errors.New("center: no such epoch window")

// ErrNoCompleteEpoch reports that no rule of the close policy lets CloseNext
// close the oldest open span now (it may still be filling, or be quorum-held),
// or that there is no open span. A hold that counts a tick is a *HeldError,
// which is ErrNoCompleteEpoch too.
var ErrNoCompleteEpoch = errors.New("center: no complete epoch buffered")

// HeldError is CloseNext's refusal when the quorum gate holds the oldest open
// span on a quiescent tick that still has hold ticks left; its text is the
// line dcsd logs for the hold.
type HeldError struct {
	Epoch    int
	Reported int   // distinct routers in the window
	Missing  []int // known-live routers absent from it
	Tick     int   // quiescent ticks held so far, at most MaxWait
	MaxWait  int
}

func (e *HeldError) Error() string {
	return fmt.Sprintf("epoch %d held below quorum (%d reported, missing routers %v), tick %d/%d",
		e.Epoch, e.Reported, e.Missing, e.Tick, e.MaxWait)
}

// Unwrap makes a hold an ErrNoCompleteEpoch.
func (e *HeldError) Unwrap() error { return ErrNoCompleteEpoch }

// ErrOlderSpanOpen reports an Analyze call that would release, unreported, an
// open span older than the requested span's start: spans close oldest first.
var ErrOlderSpanOpen = errors.New("center: an older span is still open")

// ErrNotOwned reports an Analyze call for a span this center does not own
// under its OwnsSpan partition predicate: the span's verdict is another
// shard's to emit, and this center holds the epoch's digests only as
// sliding-window context.
var ErrNotOwned = errors.New("center: span not owned by this shard")

// Config tunes the per-window analysis and the epoch ring.
type Config struct {
	// SubsetSize is the aligned detector's n′. Zero means 512.
	SubsetSize int
	// TargetP1 is the unaligned ER-test edge probability; zero means 0.5/n
	// with n the observed vertex count.
	TargetP1 float64
	// CoreP1 is the unaligned core-graph edge probability; zero means 8/n.
	CoreP1 float64
	// ComponentThreshold is the ER decision boundary; zero means 12.
	ComponentThreshold int
	// Beta and D tune the core finder; zeros mean 8 and 2.
	Beta, D int
	// Parallelism is the worker count handed to every parallel analysis
	// stage: the unaligned correlation passes and the aligned detector's
	// level scan. Zero means GOMAXPROCS; negative means serial. Results are
	// bit-identical at every setting — the knob trades wall clock only.
	Parallelism int
	// Analysis picks how analysis inputs are produced: AnalysisIncremental
	// (the zero value) maintains them as digests arrive, so Analyze is a
	// cheap finalize; AnalysisBatch rebuilds everything from the buffered
	// digests at analyze time — the reference implementation. Reports are
	// bit-identical either way.
	Analysis AnalysisMode
	// WindowSlide is the span width W: Analyze(e) covers the epochs
	// [e-W+1, e], consecutive spans overlap by W-1 epochs, and an epoch's
	// state is retired only once it has left every future span — so at
	// W >= 2 common content split across an epoch boundary still meets
	// itself inside some span. Zero or one means W=1, the paper's per-epoch
	// analysis: a span of one, closed by the same rule. Spans close oldest
	// first at every width.
	WindowSlide int
	// MaxEpochs bounds how many distinct epochs are buffered at once (the
	// reorder window). Zero means max(4, W+1). At W >= 2 it must be at least
	// W+1, so a span is never truncated by ring eviction while the next epoch
	// fills. When a digest opens an epoch beyond the bound, the oldest
	// buffered epoch is evicted unanalyzed and its digests counted dropped —
	// unless it is context at or below the span watermark, whose digests a
	// report already holds.
	MaxEpochs int
	// MemoryBudgetBytes, when positive, bounds the byte-accounted size of
	// all buffered epoch windows (retained bitmap payloads plus bookkeeping
	// estimates). A digest that would exceed the budget triggers the
	// Shedding policy instead of growing the heap without limit. Zero
	// disables the budget: only MaxEpochs bounds the ring.
	MemoryBudgetBytes int64
	// Shedding picks what gives way when MemoryBudgetBytes is exhausted:
	// ShedOldest (the zero value) drops whole old epochs — tombstoned and
	// reported Degraded+Shed, never silently — while RejectNew refuses the
	// incoming digest and preserves the buffered epochs.
	Shedding ShedPolicy
	// MinRouters, when positive, is the quorum: CloseNext and ring eviction
	// hold an epoch open while fewer than MinRouters distinct
	// routers have reported into it and a known-live router is still
	// absent. An epoch closed below quorum is marked Degraded with the
	// absentees in MissingRouters, and the unaligned component threshold is
	// rescaled for the observed router count m′ (the aligned detector's
	// significance bound already conditions on the observed matrix height).
	// Zero disables quorum gating: every epoch closes exactly as before.
	MinRouters int
	// MaxWait bounds a quorum hold in epochs: once the fleet has advanced
	// MaxWait epochs past a held window (maxSeen-epoch >= MaxWait) the
	// window closes anyway, so a dead router cannot wedge the ring. It also
	// bounds the hold in quiescent ticks, for a fleet that stopped advancing
	// epochs: CloseNext closes a held window on its MaxWait+1st. And it is
	// the liveness horizon — a router counts as live for epoch e when it has
	// reported into epoch e-MaxWait or newer. Zero means 2.
	MaxWait int
	// OwnsEpoch, when non-nil, is the shard partition predicate over ingest:
	// a digest whose epoch fails it is counted MisroutedDigests and dropped
	// before it touches any window — in a sharded deployment the coordinator
	// routes each epoch's digests to the shards whose spans need them, so a
	// failing digest here is a routing bug, not data this shard should
	// absorb. Nil accepts every epoch (the single-center deployment).
	OwnsEpoch func(epoch int) bool
	// OwnsSpan, when non-nil, restricts which spans this center may close
	// and report: CloseNext skips epochs failing it, and Analyze
	// returns ErrNotOwned for them. In sliding mode a shard buffers context
	// epochs for spans owned elsewhere (OwnsEpoch admits them); OwnsSpan is
	// what keeps it from also emitting those spans' verdicts, which would
	// duplicate another shard's report. Nil owns every span.
	OwnsSpan func(epoch int) bool
}

func (c Config) withDefaults() Config {
	if c.SubsetSize == 0 {
		c.SubsetSize = 512
	}
	if c.ComponentThreshold == 0 {
		c.ComponentThreshold = 12
	}
	if c.Beta == 0 {
		c.Beta = 8
	}
	if c.D == 0 {
		c.D = 2
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2
	}
	if c.WindowSlide == 0 {
		c.WindowSlide = 1
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = max(4, c.WindowSlide+1)
	}
	return c
}

// Validate is the one statement of which configurations New accepts: nil, or
// an error naming the first field out of range. Zero is a field's documented
// default; no value is clamped. Every span a center on a valid configuration
// closes gets a report: the analysis has no error path of its own.
func (c Config) Validate() error {
	d := c.withDefaults()
	if err := aligned.RefinedConfig(d.SubsetSize).Validate(); err != nil {
		return fmt.Errorf("center: %w", err)
	}
	if err := (unaligned.PatternConfig{Beta: d.Beta, D: d.D}).Validate(); err != nil {
		return fmt.Errorf("center: %w", err)
	}
	// A non-negative edge probability gives a p* in (0, 1] at every array
	// count (unaligned.PStarForEdgeProbability); NaN fails the test too.
	for _, f := range []struct {
		name string
		p    float64
	}{{"TargetP1", c.TargetP1}, {"CoreP1", c.CoreP1}} {
		if !(f.p >= 0) {
			return fmt.Errorf("center: %s must be zero (derived) or positive, got %v", f.name, f.p)
		}
	}
	minEpochs := 1
	if d.WindowSlide > 1 {
		minEpochs = d.WindowSlide + 1
	}
	for _, f := range []struct {
		name      string
		v, lo, hi int64
	}{
		// Under 2 the ER test fires on a graph with no edge.
		{"ComponentThreshold", int64(d.ComponentThreshold), 2, math.MaxInt64},
		{"Analysis", int64(d.Analysis), int64(AnalysisIncremental), int64(AnalysisBatch)},
		// Epochs are 32-bit on the wire: no span or horizon is wider, and
		// epoch arithmetic on these two cannot overflow.
		{"WindowSlide", int64(d.WindowSlide), 1, math.MaxInt32},
		{"MaxWait", int64(d.MaxWait), 0, math.MaxInt32},
		{"MaxEpochs", int64(d.MaxEpochs), int64(minEpochs), math.MaxInt64},
		{"MemoryBudgetBytes", d.MemoryBudgetBytes, 0, math.MaxInt64},
		{"Shedding", int64(d.Shedding), int64(ShedOldest), int64(RejectNew)},
		{"MinRouters", int64(d.MinRouters), 0, math.MaxInt64},
	} {
		switch {
		case f.v < f.lo:
			return fmt.Errorf("center: %s is %d, want at least %d", f.name, f.v, f.lo)
		case f.v > f.hi:
			return fmt.Errorf("center: %s is %d, want at most %d", f.name, f.v, f.hi)
		}
	}
	return nil
}

// RefuseZeroFlags is the command-line half of Validate, shared by dcsd and
// dcsreplay: an error naming the first, in name order, of -subset,
// -er-threshold, -beta, -d and -max-wait that fs was given explicitly as 0,
// or nil. Those flags fill
// fields whose zero means "use the default", so an explicit 0 would reach the
// center as the default, silently.
func RefuseZeroFlags(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "subset", "er-threshold", "beta", "d", "max-wait":
			if err == nil && f.Value.String() == "0" {
				err = fmt.Errorf("-%s 0: must be positive", f.Name)
			}
		}
	})
	return err
}

// AlignedOutcome is the aligned-case analysis of one window.
type AlignedOutcome struct {
	// Routers is how many digests entered the analysis.
	Routers int
	// Detection is the detector's verdict. Its Rows field indexes matrix
	// rows; RouterIDs below is the same list translated to router ids.
	Detection aligned.Detection
	// RouterIDs are the implicated routers, sorted ascending.
	RouterIDs []int
}

// UnalignedOutcome is the unaligned-case analysis of one window.
type UnalignedOutcome struct {
	// Vertices is the merged graph size.
	Vertices int
	// ER is the statistical test verdict.
	ER unaligned.ERTestResult
	// PatternVertices and Routers identify the carriers when ER fired.
	PatternVertices []unaligned.Vertex
	Routers         []int
}

// WindowReport is everything one epoch window produced. Nil members mean
// that digest kind did not arrive (or arrived from fewer than two routers).
type WindowReport struct {
	// Epoch is the measurement epoch the report covers.
	Epoch int
	// Routers is how many distinct routers reported into the window (the
	// observed m′, either digest kind counting).
	Routers int
	// Degraded reports that the window closed without the full picture:
	// below the MinRouters quorum, shed for memory pressure, analyzed after
	// refusing digests at admission, or with digests left out for their
	// shape (ExcludedRouters). MissingRouters
	// names the known-live routers that never reported into the window,
	// sorted ascending (quorum gating only).
	Degraded       bool
	MissingRouters []int
	// ExcludedRouters names, sorted ascending, the routers that had a digest
	// left out of the analysis for its shape: refused at admission (no
	// groups, an empty or ragged bank, an aligned bitmap under two bits, a
	// resend that changes shape) or stored at a geometry other than the
	// span's modal one. A non-empty list marks the report Degraded.
	ExcludedRouters []int `json:",omitempty"`
	// Shed reports the window was dropped whole for memory pressure and
	// never analyzed: ShedDigests is how many buffered digests died with
	// it, and Aligned/Unaligned stay nil. A shed epoch is tombstoned — late
	// digests cannot reopen it — and this report is its only trace, so the
	// ledger stays explicit: every ingested digest is analyzed, dropped by
	// eviction, or shed, never silently lost.
	Shed        bool
	ShedDigests int
	// RejectedDigests counts digests refused from this window at admission
	// while it was buffering, by a RejectNew memory budget or for their
	// shape (the window analyzed, but incomplete).
	RejectedDigests int
	// SpanStart and SpanEpochs describe the analysis span: it covers epochs
	// [SpanStart, Epoch], and SpanEpochs lists the ones that held data.
	// RetiredEpochs lists the epochs whose buffered state was released with
	// this report: every buffered epoch at or below SpanStart, which no
	// future span needs; crash-recovery journals can forget an epoch's frames
	// when it appears here. At WindowSlide 1 that is the report's own epoch;
	// at W >= 2 retirement trails Epoch by W-1.
	SpanStart     int
	SpanEpochs    []int
	RetiredEpochs []int
	Aligned       *AlignedOutcome
	Unaligned     *UnalignedOutcome
}

// window is one epoch's accumulating state.
type window struct {
	aligned map[int]*bitvec.Vector
	// unaligned keeps one digest per router (unalignedIdx maps router id to
	// its slot) so a resent digest can replace it.
	unaligned    []*unaligned.Digest
	unalignedIdx map[int]int
	// opened is when the window's first digest arrived; analyzeWindow
	// observes the ingest→analyze latency against it. Wall time only feeds
	// the histogram, never an analysis result, so determinism is untouched.
	opened time.Time
	// bytes is the window's byte-accounted retained size (retainedBytes of
	// every stored digest); the center's bufferedBytes is the sum over all
	// windows.
	bytes int64
	// rejected counts digests admission refused from this window — under a
	// RejectNew memory budget or for their shape; the window's eventual report
	// carries it and marks Degraded. excluded names the routers refused for
	// their shape, nil until one is.
	rejected int
	excluded map[int]bool
	// acc incrementally maintains this window's aligned detection state —
	// the column-major matrix and per-column popcounts — as digests arrive,
	// one accumulator per bitmap width; nil in AnalysisBatch mode. Mutated
	// only under the center's mu. Its accounted bytes ride in the center's
	// bufferedBytes ledger (not in w.bytes, which stays the retained digest
	// payload).
	acc map[int]*aligned.Accumulator
	// expect is what the window still waits for: the registry's (router, kind)
	// pairs live under the MaxWait horizon when the window opened (a kindBits
	// mask per router), minus every one stored since. complete latches when a
	// stored digest empties a set that was not empty to begin with — the
	// moment the close policy no longer has to wait for quiescence. A window
	// opened on an empty registry (the fleet's first epoch) expects nothing
	// and never completes. Bounded by the registry, so it rides outside the
	// byte ledger like the registry itself. Mutated only under the center's mu.
	expect   map[int]kindBits
	complete bool
	// stored is the center's tick generation when the window last stored a
	// new digest (a replacement or a refusal does not count): the window is
	// quiescent once stored trails the generation by two or more: once it
	// has stored nothing since the previous Tick. held counts the quiescent
	// ticks the quorum gate has held it. Both mutated only under the
	// center's mu.
	stored, held int
}

func (c *Center) newWindowLocked() *window {
	w := &window{
		aligned:      make(map[int]*bitvec.Vector),
		unalignedIdx: make(map[int]int),
		opened:       time.Now(),
	}
	if c.cfg.Analysis == AnalysisIncremental {
		w.acc = map[int]*aligned.Accumulator{}
	}
	return w
}

func (w *window) digests() int { return len(w.aligned) + len(w.unaligned) }

// reporters is the set of distinct routers that reported either digest kind
// into this window.
func (w *window) reporters() map[int]bool {
	out := make(map[int]bool, len(w.aligned)+len(w.unalignedIdx))
	for id := range w.aligned {
		out[id] = true
	}
	for id := range w.unalignedIdx {
		out[id] = true
	}
	return out
}

// Center accumulates digests keyed by epoch and analyzes closed epochs on
// demand. Ingest is safe for concurrent use (the transport server calls it
// from per-connection goroutines); Analyze atomically detaches one epoch's
// window, so analysis never races later ingest.
type Center struct {
	cfg   Config
	stats Stats // atomic; read without mu

	mu      sync.Mutex
	windows map[int]*window // guarded by mu
	// maxSeen is the newest epoch ever ingested; an epoch is superseded
	// once a strictly newer one has been seen (the collectors moved on).
	maxSeen    int  // guarded by mu
	sawAny     bool // guarded by mu
	floor      int  // guarded by mu; epochs <= floor are closed (analyzed or evicted)
	floorValid bool // guarded by mu
	// evicted tombstones epochs evicted from the middle of the ring while an
	// older window was quorum-held: the floor cannot rise past the held
	// window, so without a tombstone a late digest for the evicted epoch
	// would silently reopen it as a fresh, near-empty window that later
	// analyzes degraded. Tombstones at or below the floor are pruned when it
	// rises, so the set stays bounded by the ring width. guarded by mu
	evicted map[int]bool
	// roster is the router registry: per router, the newest epoch it has ever
	// stamped on each digest kind (late and duplicate digests count — the
	// router is alive even when its data is unusable). Quorum liveness is its
	// per-router view; the set a new window expects is its per-kind view.
	roster map[int]rosterRow // guarded by mu
	// wake is poked (never blocked on) when a window's last expected digest
	// is stored. Immutable after New.
	wake chan struct{}
	// bufferedBytes is the byte-accounted size of every buffered window —
	// what Config.MemoryBudgetBytes constrains. guarded by mu
	bufferedBytes int64
	// shedReports holds the tombstone report of each epoch shed for memory
	// pressure, until Analyze or TakeShedReports hands it out. guarded by mu
	shedReports map[int]WindowReport
	// evictedEpochs lists the epochs ring eviction released since the last
	// TakeEvictedEpochs, oldest eviction first. guarded by mu
	evictedEpochs []int
	// trackers maintain the unaligned pairwise correlation evidence
	// incrementally across all buffered epochs, one tracker per geometry, so
	// a digest is correlated only with digests a span can analyze it with
	// and the prune's vertex bound counts only those; nil in AnalysisBatch
	// mode. Their accounted bytes ride in bufferedBytes. guarded by mu
	trackers map[geometry]*unaligned.Tracker
	// spanClosed is the span watermark, the newest reported span; windows
	// still buffered at or below it are context for the spans ahead.
	spanClosed      int  // guarded by mu
	spanClosedValid bool // guarded by mu
	// tick is the quiescence clock's generation, advanced by Tick.
	tick int // guarded by mu
}

// New builds a center. It panics on a configuration Validate refuses: a
// caller taking one from outside the program validates it first.
func New(cfg Config) *Center {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Center{
		cfg:     cfg.withDefaults(),
		windows: make(map[int]*window),
		evicted: make(map[int]bool),
		roster:  make(map[int]rosterRow),
		wake:    make(chan struct{}, 1),
	}
	c.stats.IngestToAnalyzeSeconds.SetBuckets(centerLatencyBuckets)
	c.stats.FinalizeSeconds.SetBuckets(centerLatencyBuckets)
	if c.cfg.Analysis == AnalysisIncremental {
		c.trackers = map[geometry]*unaligned.Tracker{}
	}
	return c
}

// Stats returns the center's counters, live.
func (c *Center) Stats() *Stats { return &c.stats }

// RegisterMetrics exposes the center on a metrics registry: every Stats
// counter plus live gauges over the ring — buffered epochs, epochs the
// quorum gate currently holds open, and the registered router count. The
// gauges are computed at scrape time under the center's lock (scrapes are
// cold; ingest never takes the registry's locks).
func (c *Center) RegisterMetrics(r *metrics.Registry) {
	c.stats.Register(r)
	r.GaugeFunc("dcs_center_buffered_epochs",
		"epoch windows currently buffered in the reorder ring", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.windows))
		})
	r.GaugeFunc("dcs_center_quorum_held_epochs",
		"buffered epochs the quorum gate is holding open for missing live routers", func() float64 {
			return float64(c.HeldEpochs())
		})
	r.GaugeFunc("dcs_center_buffered_bytes",
		"byte-accounted size of all buffered epoch windows (what -mem-budget constrains)", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.bufferedBytes)
		})
	r.GaugeFunc("dcs_center_routers",
		"distinct routers that have ever reported a digest", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.roster))
		})
}

// Ingest accepts decoded digest messages — one, or every frame of a
// datagram under one acquisition of the center's lock — and files each under
// the epoch stamped on it, in order. Unknown message types are ignored
// (forward compatibility with future digest kinds). Digests for epochs that
// were already analyzed or evicted are counted late and dropped.
func (c *Center) Ingest(ms ...transport.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range ms {
		c.ingestLocked(m)
	}
}

// ingestLocked files one message. Caller holds c.mu.
func (c *Center) ingestLocked(m transport.Message) {
	var epoch, router int
	var kind digestKind
	switch d := m.(type) {
	case transport.AlignedDigest:
		epoch, router, kind = d.Epoch, d.RouterID, kindAligned
	case transport.UnalignedDigest:
		epoch, router, kind = d.Epoch, d.Digest.RouterID, kindUnaligned
	default:
		c.stats.UnknownMessages.Add(1)
		return
	}

	if c.cfg.OwnsEpoch != nil && !c.cfg.OwnsEpoch(epoch) {
		// Misrouted past the shard partition: counted and dropped whole, with
		// no registry side effects — this shard's quorum must reason only
		// about the traffic the coordinator actually routes to it.
		c.stats.MisroutedDigests.Add(1)
		return
	}
	// Register first — a late digest still proves its router alive, and ring
	// eviction below judges quorum holds by the registry including it.
	prev := c.roster[router]
	c.roster[router] = prev.stamped(kind, epoch)
	_, buffered := c.windows[epoch]
	w := c.windowFor(epoch)
	if w == nil {
		c.stats.LateDigests.Add(1)
		return
	}
	if !buffered {
		// This digest opened the window: fix what it waits for.
		w.expect = c.expectedLocked(epoch, router, prev)
	}
	// Admission runs before storage: a digest refused for its shape or by
	// the memory budget is counted RejectedDigests (its ledger) and the
	// window marked, never half-stored. Shape comes first: the center refuses
	// a digest it cannot analyze with anything (no groups, an empty or ragged
	// bank, an aligned bitmap under two bits) and a resend whose shape
	// differs from the digest it would replace. A resend of the same shape
	// retains exactly the bytes it replaces, so only a new digest meets the
	// budget. In incremental mode the aligned admission also covers the
	// accumulator's exact structural growth; the unaligned tracker's evidence
	// growth is content-dependent, so it is enforced after the fact instead
	// (enforceBudgetLocked).
	var (
		dup, ok bool
		old     *bitvec.Vector // the aligned bitmap a resend replaces
		slot    int            // the unaligned slot a resend replaces
		geo     geometry
		acc     *aligned.Accumulator
	)
	sz := retainedBytes(m)
	need := sz
	switch d := m.(type) {
	case transport.AlignedDigest:
		width := d.Bitmap.Len()
		old, dup = w.aligned[router]
		ok = width >= 2 && (!dup || old.Len() == width)
		if ok && w.acc != nil {
			if acc = w.acc[width]; acc == nil {
				acc = aligned.NewAccumulator()
				w.acc[width] = acc
			}
			need += acc.EstimateAdd(router, d.Bitmap)
		}
	case transport.UnalignedDigest:
		geo, ok = unalignedGeometry(d.Digest)
		if slot, dup = w.unalignedIdx[router]; dup {
			// The group count is part of a resend's shape: fewer groups
			// would shrink the epoch below the vertex count the tracker
			// pruned for.
			prev := w.unaligned[slot]
			ok = ok && len(prev.Rows) == len(d.Digest.Rows) && geometryOf(prev) == geo
		}
	}
	if dup {
		c.stats.DuplicateDigests.Add(1)
	}
	if !ok {
		c.rejectLocked(w)
		if w.excluded == nil {
			w.excluded = map[int]bool{}
		}
		w.excluded[router] = true
		return
	}
	if !dup {
		if !c.admitLocked(epoch, need) {
			c.rejectLocked(w)
			return
		}
		w.bytes += sz
		c.bufferedBytes += sz
	}
	switch d := m.(type) {
	case transport.AlignedDigest:
		w.aligned[router] = d.Bitmap
		if acc != nil {
			if dup {
				// A replacement must retract the digest it displaces before
				// the new one lands, or the replaced bits would stay OR-ed
				// into the column state forever.
				acc.Remove(router, old)
			}
			c.bufferedBytes += acc.Add(router, d.Bitmap)
		}
	case transport.UnalignedDigest:
		if dup {
			w.unaligned[slot] = d.Digest
		} else {
			w.unalignedIdx[router] = len(w.unaligned)
			w.unaligned = append(w.unaligned, d.Digest)
		}
		if c.trackers != nil {
			tr := c.trackers[geo]
			if tr == nil {
				tr = unaligned.NewTracker(unaligned.TrackerConfig{
					TargetP1: c.cfg.TargetP1, CoreP1: c.cfg.CoreP1, Reach: c.cfg.WindowSlide})
				c.trackers[geo] = tr
			}
			c.bufferedBytes += tr.Remove(epoch, router)
			c.bufferedBytes += tr.Add(epoch, d.Digest)
			c.enforceBudgetLocked(epoch)
		}
	}
	// A replacement mutates the window without growing it, so it counts in
	// ReplacedDigests, not DigestsIngested — otherwise eviction's
	// DroppedDigests (which drains the window's actual digest count) could
	// never balance the ingest ledger.
	if dup {
		c.stats.ReplacedDigests.Add(1)
		return
	}
	c.stats.DigestsIngested.Add(1)
	c.arrivedLocked(w, router, kind)
}

// rejectLocked records an admission refusal against the window the digest
// was headed for: the refusal is the digest's whole ledger, and the window
// will analyze Degraded with the count on its report. Caller holds c.mu.
func (c *Center) rejectLocked(w *window) {
	w.rejected++
	c.stats.RejectedDigests.Add(1)
}

// windowFor returns the window for epoch, opening (and possibly evicting)
// as needed, or nil when the epoch is already closed. Caller holds c.mu.
func (c *Center) windowFor(epoch int) *window {
	if !c.sawAny || epoch > c.maxSeen {
		c.maxSeen = epoch
		c.sawAny = true
	}
	if w, ok := c.windows[epoch]; ok {
		return w
	}
	if c.evicted[epoch] {
		// Evicted from the middle of the ring while an older window was
		// held: the floor never rose past it, but reopening it would build a
		// fresh near-empty window the center later analyzes as a bogus
		// degraded epoch. The straggler is late, exactly as if the floor had
		// covered it.
		return nil
	}
	if c.floorValid && epoch <= c.floor {
		return nil
	}
	for len(c.windows) >= c.cfg.MaxEpochs {
		oldest := -1
		for e := range c.windows {
			if oldest < 0 || e < oldest {
				oldest = e
			}
		}
		if oldest >= epoch {
			// The newcomer is older than everything buffered and the ring
			// is full: it is effectively late.
			return nil
		}
		victim := c.victimLocked(epoch)
		if !c.spanClosedValid || victim > c.spanClosed {
			// Context at or below the watermark is in a report already.
			c.stats.DroppedDigests.Add(int64(c.windows[victim].digests()))
			c.stats.EpochsEvicted.Add(1)
		}
		c.releaseLocked(victim, c.windows[victim])
		c.evictedEpochs = append(c.evictedEpochs, victim)
		if victim == oldest {
			// Only raising past the oldest keeps held mid-ring windows
			// reachable; a floor above them would silently close them.
			c.raiseFloor(victim)
		} else {
			// A mid-ring victim stays above the floor, so tombstone it:
			// without this a late digest for the evicted epoch would reopen
			// it as a fresh empty window.
			c.evicted[victim] = true
		}
	}
	w := c.newWindowLocked()
	c.windows[epoch] = w
	return w
}

// victimLocked picks which buffered epoch gives way under pressure. Ring
// eviction (windowFor) and memory shedding (admitLocked,
// enforceBudgetLocked) all share this one ordering, so an epoch that is
// simultaneously a quorum hold and a shed candidate can never be chosen by
// one path and spared by the other — which is what keeps the per-epoch
// ledger (buffered + shed + dropped = ingested) coherent. The pinned rule:
// the oldest epoch the quorum gate is not holding open goes first — reported
// context, at or below the span watermark, is never held, since a report
// already holds its digests and no quorum can change that; only when
// every candidate is held does the overall oldest go — memory pressure still
// outranks the gate (a refused shed would OOM or starve newer epochs, and a
// shed window is at least honestly reported), but it spends non-held windows
// before breaking a hold, and MaxWait bounds how long the all-held case can
// last. exclude shields one epoch (the window the triggering digest is being
// filed into — shedding it would charge the digest to a window that no
// longer exists). Returns -1 when nothing is eligible. Caller holds c.mu.
func (c *Center) victimLocked(exclude int) int {
	oldest, victim := -1, -1
	for e := range c.windows {
		if e == exclude {
			continue
		}
		if oldest < 0 || e < oldest {
			oldest = e
		}
		reported := c.spanClosedValid && e <= c.spanClosed
		if (reported || !c.quorumLocked(e).Hold) && (victim < 0 || e < victim) {
			victim = e
		}
	}
	if victim < 0 {
		victim = oldest
	}
	return victim
}

// raiseFloor closes every epoch up to e and prunes tombstones the new floor
// subsumes (a floor check short-circuits before the tombstone lookup would
// match them). Caller holds c.mu.
func (c *Center) raiseFloor(e int) {
	if !c.floorValid || e > c.floor {
		c.floor, c.floorValid = e, true
		for t := range c.evicted {
			if t <= c.floor {
				delete(c.evicted, t)
			}
		}
	}
}

// QuorumState describes how far one epoch's window is from quorum.
type QuorumState struct {
	// Epoch is the window asked about.
	Epoch int
	// Reported is how many distinct routers have reported into the window.
	Reported int
	// Missing names the known-live routers (reported into epoch-MaxWait or
	// newer) absent from the window, sorted ascending.
	Missing []int
	// Hold is true when quiescence-driven closing and ring eviction should
	// keep the window open: below quorum, a live router still absent, and
	// the fleet not yet MaxWait epochs past this one.
	Hold bool
}

// Quorum reports the quorum state of one epoch. Hold is always false when
// quorum gating is off (MinRouters == 0) — today's behaviour.
func (c *Center) Quorum(epoch int) QuorumState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quorumLocked(epoch)
}

// quorumLocked computes QuorumState for epoch; the window may be absent
// (Reported 0). Caller holds c.mu.
func (c *Center) quorumLocked(epoch int) QuorumState {
	st := QuorumState{Epoch: epoch}
	var reporters map[int]bool
	if w, ok := c.windows[epoch]; ok {
		reporters = w.reporters()
	}
	st.Reported = len(reporters)
	if c.cfg.MinRouters <= 0 {
		return st
	}
	st.Missing = c.absentLocked(epoch, reporters)
	st.Hold = st.Reported < c.cfg.MinRouters && len(st.Missing) > 0 &&
		c.maxSeen-epoch < c.cfg.MaxWait
	return st
}

// HeldEpochs counts the buffered epochs the quorum gate currently holds
// open — the gauge above, and the HeldEpochs of a shard's report envelopes.
func (c *Center) HeldEpochs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := 0
	for e := range c.windows {
		if c.quorumLocked(e).Hold {
			held++
		}
	}
	return held
}

// windowMeta is the quorum context captured (under c.mu) at the moment a
// window detaches for analysis, so the report reflects the registry as it
// stood when the epoch closed.
type windowMeta struct {
	missing  []int
	degraded bool
	fleet    int // registered routers (observed fleet size m)
	observed int // distinct routers in this window (m′)
}

// metaLocked computes windowMeta for a window about to close. Caller holds
// c.mu.
func (c *Center) metaLocked(epoch int, w *window) windowMeta {
	rep := w.reporters()
	m := windowMeta{fleet: len(c.roster), observed: len(rep)}
	if c.cfg.MinRouters <= 0 {
		return m
	}
	m.missing = c.absentLocked(epoch, rep)
	m.degraded = m.observed < c.cfg.MinRouters
	return m
}

// Pending returns how many digests of each kind await analysis, summed over
// all buffered epochs.
func (c *Center) Pending() (alignedCount, unalignedCount int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.windows {
		alignedCount += len(w.aligned)
		unalignedCount += len(w.unaligned)
	}
	return alignedCount, unalignedCount
}

// Epochs lists the buffered epochs, oldest first.
func (c *Center) Epochs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochsLocked()
}

// epochsLocked lists the buffered epochs, oldest first. Caller holds c.mu.
func (c *Center) epochsLocked() []int {
	out := make([]int, 0, len(c.windows))
	for e := range c.windows {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// EpochDigests returns the digest count buffered for each epoch, for
// /healthz.
func (c *Center) EpochDigests() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.windows))
	for e, w := range c.windows {
		out[e] = w.digests()
	}
	return out
}

// Analyze closes the span ending at the given epoch, analyzes it, and
// retires every window that has left all future spans (at WindowSlide 1:
// this window); later digests for retired epochs count as late. ErrNoWindow
// when the center holds nothing for the epoch, or when a newer span already
// foreclosed this one; ErrOlderSpanOpen while an open span older than this
// one's start still waits for its own report.
func (c *Center) Analyze(epoch int) (WindowReport, error) {
	c.mu.Lock()
	if rep, shed := c.shedReports[epoch]; shed {
		// The epoch was shed for memory pressure before anyone analyzed it:
		// hand out its tombstone report (Degraded, Shed, digest count) —
		// honest about the loss, never ErrNoWindow as if it had been
		// analyzed and forgotten. Each report is handed out once.
		delete(c.shedReports, epoch)
		c.mu.Unlock()
		return rep, nil
	}
	var snap *spanSnapshot
	err := c.closableLocked(epoch)
	if err == nil {
		snap = c.closeSpanLocked(epoch)
	}
	c.mu.Unlock()
	if err != nil {
		return WindowReport{Epoch: epoch}, err
	}
	return c.analyzeSpan(snap), nil
}

// closableLocked is why Analyze may not close the span ending at epoch now,
// or nil. Caller holds c.mu.
func (c *Center) closableLocked(epoch int) error {
	if c.cfg.OwnsSpan != nil && !c.cfg.OwnsSpan(epoch) {
		return ErrNotOwned
	}
	if _, ok := c.windows[epoch]; !ok || (c.spanClosedValid && epoch <= c.spanClosed) {
		// Never seen, retired, or foreclosed by a newer span.
		return fmt.Errorf("%w: %d", ErrNoWindow, epoch)
	}
	if oldest, ok := c.oldestOpenLocked(); ok && oldest < epoch-c.cfg.WindowSlide+1 {
		return fmt.Errorf("%w: span %d before span %d", ErrOlderSpanOpen, oldest, epoch)
	}
	return nil
}

// AnalyzeLatestComplete is CloseNext's superseded rule alone: it closes the
// oldest open span when a newer epoch has been seen and the quorum gate is not
// holding it, and returns ErrNoCompleteEpoch otherwise.
func (c *Center) AnalyzeLatestComplete() (WindowReport, error) {
	rep, _, err := c.CloseNext(CloseSuperseded)
	return rep, err
}

// Tick advances the quiescence clock one window: a span whose window stores
// nothing from one Tick to the next becomes quiescent for CloseNext.
func (c *Center) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
}

// CloseNext is the close policy (DESIGN §14). Under one lock it takes the
// oldest open span and closes it if a rule allows it now, trying the rules in
// one order whatever the trigger: superseded by a newer epoch and not held by
// the quorum gate (CloseSuperseded); otherwise the trigger's own rule —
// complete and not held (CloseComplete, the wake), quiescent with the hold,
// if any, out of its MaxWait ticks (CloseQuiescent, the tick), or always
// (CloseDrain). It then analyzes the span, counts Stats.Closed under the rule
// that closed it, and returns the report and that rule. Its only error is the
// refusal when no rule applies: ErrNoCompleteEpoch, as a *HeldError when the
// refusal counted a held tick. A span it closes always has a report.
func (c *Center) CloseNext(trigger CloseCause) (WindowReport, CloseCause, error) {
	c.mu.Lock()
	cause, err := trigger, ErrNoCompleteEpoch
	var snap *spanSnapshot
	if e, ok := c.oldestOpenLocked(); ok {
		if cause, err = c.closeRuleLocked(e, trigger); err == nil {
			snap = c.closeSpanLocked(e)
		}
	}
	c.mu.Unlock()
	if err != nil {
		return WindowReport{}, cause, err
	}
	c.stats.Closed[cause].Inc()
	return c.analyzeSpan(snap), cause, nil
}

// closeRuleLocked is the rule that lets trigger close the open span e now, or
// the refusal. Caller holds c.mu.
func (c *Center) closeRuleLocked(e int, trigger CloseCause) (CloseCause, error) {
	w := c.windows[e]
	// The quorum is asked last in each rule: it walks the window and the
	// registry, and a tick or wake finds the newest span filling more often
	// than not.
	if e < c.maxSeen && !c.quorumLocked(e).Hold {
		return CloseSuperseded, nil
	}
	switch trigger {
	case CloseComplete:
		if w.complete && !c.quorumLocked(e).Hold {
			return CloseComplete, nil
		}
	case CloseQuiescent:
		if w.stored+1 >= c.tick {
			break // stored since the previous Tick: still filling
		}
		if q := c.quorumLocked(e); q.Hold {
			if w.held++; w.held <= c.cfg.MaxWait {
				return trigger, &HeldError{Epoch: e, Reported: q.Reported, Missing: q.Missing, Tick: w.held, MaxWait: c.cfg.MaxWait}
			}
		}
		return CloseQuiescent, nil
	case CloseDrain:
		return CloseDrain, nil
	}
	return trigger, ErrNoCompleteEpoch
}

// oldestOpenLocked returns the oldest span this center still owes a report:
// the oldest buffered epoch it owns (OwnsSpan) above the watermark. Spans close
// oldest first, so it is the only open span anyone asks about. Caller holds
// c.mu.
func (c *Center) oldestOpenLocked() (epoch int, ok bool) {
	for e := range c.windows {
		if c.spanClosedValid && e <= c.spanClosed {
			continue // context of a span already reported
		}
		if c.cfg.OwnsSpan != nil && !c.cfg.OwnsSpan(e) {
			continue // another shard's to report
		}
		if !ok || e < epoch {
			epoch, ok = e, true
		}
	}
	return epoch, ok
}

// scaledThreshold shrinks an ER component threshold tuned for fleet routers
// down to the observed router count: the expected pattern component grows
// linearly in the number of reporting routers (each carrier contributes its
// group vertices), so a window missing routers must clear a proportionally
// smaller bar or the partition itself would mask the pattern. Floor of 2 —
// below that a single chance edge would fire the test.
func scaledThreshold(configured, observed, fleet int) int {
	t := (configured*observed + fleet - 1) / fleet
	if t < 2 {
		t = 2
	}
	return t
}

// analyzeUnaligned is the batch unaligned path, and the reference the
// incremental one is tested against: merge the digests and run the
// O(vertices²·k²) correlation pass once per λ table.
func (c *Center) analyzeUnaligned(s *spanSnapshot) *UnalignedOutcome {
	gm, err := unaligned.Merge(s.unalignedDigests)
	mustAnalyze(s.epoch, err)
	// Merge guarantees a uniform array count, so k² is well-defined.
	return c.unalignedVerdict(s, gm.NumVertices(), gm.ArrayBits(), gm.ArraysPerGroup(), gm.Vertex,
		func(lt *unaligned.LambdaTable) *graph.Graph {
			g, err := gm.BuildGraphParallel(lt, c.cfg.Parallelism)
			mustAnalyze(s.epoch, err)
			return g
		})
}

// unalignedVerdict is the unaligned decision, shared by the batch and the
// incremental path: they differ only in how build produces the correlation
// graph a λ table admits over the n vertices (arrays per group, bits per
// array) that vertex names; a nil table, at edge probability 1 or more, admits
// every vertex pair. The ER test runs on the graph at the target edge
// probability; only on a detection is the denser core graph built and the
// pattern's vertices folded into routers. The default core probability 8/n
// reaches 1 at n ≤ 8: such a span's core graph is complete.
func (c *Center) unalignedVerdict(s *spanSnapshot, n, bits, arrays int,
	vertex func(int) unaligned.Vertex, build func(*unaligned.LambdaTable) *graph.Graph) *UnalignedOutcome {
	// Validate admits only edge probabilities with a p* in (0, 1].
	table := func(p1 float64) *unaligned.LambdaTable {
		lt, err := unaligned.SharedLambdaTable(bits, unaligned.PStarForEdgeProbability(p1, arrays*arrays))
		mustAnalyze(s.epoch, err)
		return lt
	}
	p1 := c.cfg.TargetP1
	if p1 == 0 {
		p1 = 0.5 / float64(n)
	}
	threshold := c.cfg.ComponentThreshold
	if c.cfg.MinRouters > 0 && s.meta.fleet > 0 && s.unalignedCount < s.meta.fleet {
		threshold = scaledThreshold(threshold, s.unalignedCount, s.meta.fleet)
	}
	out := &UnalignedOutcome{
		Vertices: n,
		ER:       unaligned.ERTest(build(table(p1)), threshold),
	}
	if !out.ER.PatternDetected {
		return out
	}

	coreP1 := c.cfg.CoreP1
	if coreP1 == 0 {
		coreP1 = 8 / float64(n)
	}
	found, err := unaligned.FindPattern(build(table(coreP1)), unaligned.PatternConfig{Beta: c.cfg.Beta, D: c.cfg.D})
	mustAnalyze(s.epoch, err)
	routerSeen := map[int]bool{}
	for _, v := range found {
		vert := vertex(v)
		out.PatternVertices = append(out.PatternVertices, vert)
		if !routerSeen[vert.RouterID] {
			routerSeen[vert.RouterID] = true
			out.Routers = append(out.Routers, vert.RouterID)
		}
	}
	return out
}
