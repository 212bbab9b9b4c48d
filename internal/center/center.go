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
// and dropped, and duplicates (a collector resending after a reconnect) are
// counted and resolved by policy instead of silently overwriting another
// epoch's state.
package center

import (
	"errors"
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

// DuplicatePolicy resolves two digests from one router for one epoch.
type DuplicatePolicy int

const (
	// DupKeepLast replaces the earlier digest — right for collectors that
	// resend the same digest after a reconnect (the default).
	DupKeepLast DuplicatePolicy = iota
	// DupKeepFirst drops the later digest.
	DupKeepFirst
)

// ErrNoWindow reports an Analyze call for an epoch the center holds no
// digests for (never seen, already analyzed, or evicted).
var ErrNoWindow = errors.New("center: no such epoch window")

// ErrNoCompleteEpoch reports that every buffered digest belongs to the
// newest epoch seen so far, which may still be filling.
var ErrNoCompleteEpoch = errors.New("center: no complete epoch buffered")

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
	// WindowSlide, when >= 2, turns on overlapping sliding-window analysis:
	// Analyze(e) covers the span of epochs [e-WindowSlide+1, e], consecutive
	// spans overlap by WindowSlide-1 epochs, and an epoch's state is retired
	// only once it has left every future span — so common content split
	// across an epoch boundary still meets itself inside some span. Spans
	// close oldest-first; AnalyzeLatestComplete emits them in order. Zero or
	// one means classic non-overlapping per-epoch analysis. MaxEpochs is
	// clamped to at least WindowSlide+1 so a span is never truncated by ring
	// eviction while the next epoch fills.
	WindowSlide int
	// MaxEpochs bounds how many distinct epochs are buffered at once (the
	// reorder window). Zero means 4. When a digest opens an epoch beyond
	// the bound, the oldest buffered epoch is evicted unanalyzed and its
	// digests counted dropped.
	MaxEpochs int
	// Duplicates picks the resolution for a router resending within one
	// epoch. The zero value is DupKeepLast.
	Duplicates DuplicatePolicy
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
	// MinRouters, when positive, is the quorum: AnalyzeLatestComplete and
	// ring eviction hold an epoch open while fewer than MinRouters distinct
	// routers have reported into it and a known-live router is still
	// absent. An epoch closed below quorum is marked Degraded with the
	// absentees in MissingRouters, and the unaligned component threshold is
	// rescaled for the observed router count m′ (the aligned detector's
	// significance bound already conditions on the observed matrix height).
	// Zero disables quorum gating: every epoch closes exactly as before.
	MinRouters int
	// MaxWait bounds a quorum hold in epochs: once the fleet has advanced
	// MaxWait epochs past a held window (maxSeen-epoch >= MaxWait) the
	// window closes anyway, so a dead router cannot wedge the ring. It is
	// also the liveness horizon — a router counts as live for epoch e when
	// it has reported into epoch e-MaxWait or newer. Zero means 2.
	MaxWait int
	// OwnsEpoch, when non-nil, is the shard partition predicate over ingest:
	// a digest whose epoch fails it is counted MisroutedDigests and dropped
	// before it touches any window — in a sharded deployment the coordinator
	// routes each epoch's digests to the shards whose spans need them, so a
	// failing digest here is a routing bug, not data this shard should
	// absorb. Nil accepts every epoch (the single-center deployment).
	OwnsEpoch func(epoch int) bool
	// OwnsSpan, when non-nil, restricts which spans this center may close
	// and report: AnalyzeLatestComplete skips epochs failing it, and Analyze
	// returns ErrNotOwned for them. In sliding mode a shard buffers context
	// epochs for spans owned elsewhere (OwnsEpoch admits them); OwnsSpan is
	// what keeps it from also emitting those spans' verdicts, which would
	// duplicate another shard's report. Nil owns every span.
	OwnsSpan func(epoch int) bool
	// Stats, when non-nil, receives the center's counters; several centers
	// may share one. Nil allocates a private Stats.
	Stats *Stats
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
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 4
	}
	if c.MaxEpochs < 1 {
		// A non-positive bound would make the eviction loop index an empty
		// ring; clamp like SetMaxEpochs does.
		c.MaxEpochs = 1
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2
	}
	if c.WindowSlide < 1 {
		c.WindowSlide = 1
	}
	if c.WindowSlide > 1 && c.MaxEpochs < c.WindowSlide+1 {
		c.MaxEpochs = c.WindowSlide + 1
	}
	if c.Stats == nil {
		c.Stats = new(Stats)
	}
	c.Stats.IngestToAnalyzeSeconds.SetBuckets(centerLatencyBuckets)
	c.Stats.FinalizeSeconds.SetBuckets(centerLatencyBuckets)
	return c
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
	// below the MinRouters quorum, shed for memory pressure, or analyzed
	// after rejecting digests under a RejectNew budget. MissingRouters
	// names the known-live routers that never reported into the window,
	// sorted ascending (quorum gating only).
	Degraded       bool
	MissingRouters []int
	// Shed reports the window was dropped whole for memory pressure and
	// never analyzed: ShedDigests is how many buffered digests died with
	// it, and Aligned/Unaligned stay nil. A shed epoch is tombstoned — late
	// digests cannot reopen it — and this report is its only trace, so the
	// ledger stays explicit: every ingested digest is analyzed, dropped by
	// eviction, or shed, never silently lost.
	Shed        bool
	ShedDigests int
	// RejectedDigests counts digests refused from this window by a
	// RejectNew memory budget while it was buffering (the window analyzed,
	// but incomplete).
	RejectedDigests int
	// SpanStart and SpanEpochs describe the analysis span: it covers epochs
	// [SpanStart, Epoch], and SpanEpochs lists the ones that held data.
	// RetiredEpochs lists the epochs whose buffered state was released with
	// this report — in sliding mode an epoch is retired only once it has
	// left every future span, so retirement trails Epoch by WindowSlide-1;
	// crash-recovery journals can forget an epoch's frames when it appears
	// here. Outside sliding mode all three reduce to the report's own epoch.
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
	// its slot) so a resent digest can be resolved by policy.
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
	// rejected counts digests a RejectNew memory budget refused from this
	// window; the window's eventual report carries it and marks Degraded.
	rejected int
	// acc incrementally maintains this window's aligned detection state —
	// the column-major matrix and per-column popcounts — as digests arrive;
	// nil in AnalysisBatch mode. Mutated only under the center's mu. Its
	// accounted bytes ride in the center's bufferedBytes ledger (not in
	// w.bytes, which stays the retained digest payload).
	acc *aligned.Accumulator
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
}

func (c *Center) newWindowLocked() *window {
	w := &window{
		aligned:      make(map[int]*bitvec.Vector),
		unalignedIdx: make(map[int]int),
		opened:       time.Now(),
	}
	if c.cfg.Analysis == AnalysisIncremental {
		w.acc = aligned.NewAccumulator()
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
	cfg Config

	mu      sync.Mutex
	windows map[int]*window // guarded by mu
	// maxSeen is the newest epoch ever ingested; an epoch is "complete"
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
	// tracker maintains the unaligned pairwise correlation evidence
	// incrementally across all buffered epochs; nil in AnalysisBatch mode.
	// Its accounted bytes ride in bufferedBytes. guarded by mu
	tracker *unaligned.Tracker
	// spanClosed is the newest epoch whose sliding span has been emitted;
	// spans ending at or below it are foreclosed (sliding mode only).
	spanClosed      int  // guarded by mu
	spanClosedValid bool // guarded by mu

	// lambdaTables caches λ threshold tables across analyzes. A table's
	// entries are lazily memoized pure functions of (bits, p*), and in
	// steady state every epoch reuses the same handful of geometries — a
	// fresh table per Analyze would re-pay the hypergeometric tail search
	// for every distinct weight pair on every finalize, which dominates
	// the finalize cost once everything else is incremental.
	tableMu      sync.Mutex
	lambdaTables map[lambdaKey]*unaligned.LambdaTable
}

// lambdaKey identifies a λ table by geometry and tail probability.
type lambdaKey struct {
	bits  int
	pstar float64
}

// lambdaTable returns the cached λ table for (bits, pstar), building it on
// first use. Tables are safe for concurrent readers and their memoized
// thresholds are deterministic, so sharing across analyzes cannot change
// any result — only skip recomputing it.
func (c *Center) lambdaTable(bits int, pstar float64) (*unaligned.LambdaTable, error) {
	key := lambdaKey{bits: bits, pstar: pstar}
	c.tableMu.Lock()
	defer c.tableMu.Unlock()
	if t, ok := c.lambdaTables[key]; ok {
		return t, nil
	}
	t, err := unaligned.NewLambdaTable(bits, pstar)
	if err != nil {
		return nil, err
	}
	c.lambdaTables[key] = t
	return t, nil
}

// New builds a center.
func New(cfg Config) *Center {
	c := &Center{
		cfg:          cfg.withDefaults(),
		windows:      make(map[int]*window),
		evicted:      make(map[int]bool),
		roster:       make(map[int]rosterRow),
		wake:         make(chan struct{}, 1),
		lambdaTables: make(map[lambdaKey]*unaligned.LambdaTable),
	}
	if c.cfg.Analysis == AnalysisIncremental {
		c.tracker = unaligned.NewTracker(unaligned.TrackerConfig{
			TargetP1: c.cfg.TargetP1,
			CoreP1:   c.cfg.CoreP1,
			Reach:    c.cfg.WindowSlide,
		})
	}
	return c
}

// Stats returns the center's counters (the shared Stats when one was passed
// in Config).
func (c *Center) Stats() *Stats { return c.cfg.Stats }

// RegisterMetrics exposes the center on a metrics registry: every Stats
// counter plus live gauges over the ring — buffered epochs, epochs the
// quorum gate currently holds open, and the registered router count. The
// gauges are computed at scrape time under the center's lock (scrapes are
// cold; ingest never takes the registry's locks).
func (c *Center) RegisterMetrics(r *metrics.Registry) {
	c.cfg.Stats.Register(r)
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
		c.cfg.Stats.UnknownMessages.Add(1)
		return
	}

	if c.cfg.OwnsEpoch != nil && !c.cfg.OwnsEpoch(epoch) {
		// Misrouted past the shard partition: counted and dropped whole, with
		// no registry side effects — this shard's quorum must reason only
		// about the traffic the coordinator actually routes to it.
		c.cfg.Stats.MisroutedDigests.Add(1)
		return
	}
	// Register first — a late digest still proves its router alive, and ring
	// eviction below judges quorum holds by the registry including it.
	prev := c.roster[router]
	c.roster[router] = prev.stamped(kind, epoch)
	_, buffered := c.windows[epoch]
	w := c.windowFor(epoch)
	if w == nil {
		c.cfg.Stats.LateDigests.Add(1)
		return
	}
	if !buffered {
		// This digest opened the window: fix what it waits for.
		w.expect = c.expectedLocked(epoch, router, prev)
	}
	// A DupKeepLast replacement mutates the window without growing it, so it
	// counts in ReplacedDigests, not DigestsIngested — otherwise eviction's
	// DroppedDigests (which drains the window's actual digest count) could
	// never balance the ingest ledger.
	//
	// Admission runs before storage: a digest the memory budget refuses is
	// counted RejectedDigests (its ledger) and the window marked, never
	// half-stored. Replacements are admitted by their size *delta* — a
	// same-width resend costs nothing. In incremental mode the aligned
	// admission also covers the accumulator's exact structural growth; the
	// unaligned tracker's evidence growth is content-dependent, so it is
	// enforced after the fact instead (enforceBudgetLocked).
	sz := retainedBytes(m)
	switch d := m.(type) {
	case transport.AlignedDigest:
		if _, dup := w.aligned[d.RouterID]; dup {
			c.cfg.Stats.DuplicateDigests.Add(1)
			if c.cfg.Duplicates == DupKeepFirst {
				return
			}
			old := w.aligned[d.RouterID]
			delta := sz - vecBytes(old) - entryOverheadBytes
			if w.acc != nil {
				delta += w.acc.EstimateAdd(d.RouterID, d.Bitmap)
			}
			if !c.admitLocked(epoch, delta) {
				c.rejectLocked(w)
				return
			}
			w.aligned[d.RouterID] = d.Bitmap
			if w.acc != nil {
				// A DupKeepLast replacement must retract the digest it
				// displaces before the new one lands, or the replaced bits
				// would stay OR-ed into the column state forever.
				w.acc.Remove(d.RouterID, old)
				c.bufferedBytes += w.acc.Add(d.RouterID, d.Bitmap)
			}
			w.bytes += sz - vecBytes(old) - entryOverheadBytes
			c.bufferedBytes += sz - vecBytes(old) - entryOverheadBytes
			c.cfg.Stats.ReplacedDigests.Add(1)
			return
		}
		need := sz
		if w.acc != nil {
			need += w.acc.EstimateAdd(d.RouterID, d.Bitmap)
		}
		if !c.admitLocked(epoch, need) {
			c.rejectLocked(w)
			return
		}
		w.aligned[d.RouterID] = d.Bitmap
		if w.acc != nil {
			c.bufferedBytes += w.acc.Add(d.RouterID, d.Bitmap)
		}
	case transport.UnalignedDigest:
		if i, dup := w.unalignedIdx[d.Digest.RouterID]; dup {
			c.cfg.Stats.DuplicateDigests.Add(1)
			if c.cfg.Duplicates == DupKeepFirst {
				return
			}
			delta := sz - unalignedBytes(w.unaligned[i])
			if !c.admitLocked(epoch, delta) {
				c.rejectLocked(w)
				return
			}
			w.unaligned[i] = d.Digest
			w.bytes += delta
			c.bufferedBytes += delta
			if c.tracker != nil {
				c.bufferedBytes += c.tracker.Remove(epoch, d.Digest.RouterID)
				c.bufferedBytes += c.tracker.Add(epoch, d.Digest)
				c.enforceBudgetLocked(epoch)
			}
			c.cfg.Stats.ReplacedDigests.Add(1)
			return
		}
		if !c.admitLocked(epoch, sz) {
			c.rejectLocked(w)
			return
		}
		w.unalignedIdx[d.Digest.RouterID] = len(w.unaligned)
		w.unaligned = append(w.unaligned, d.Digest)
		w.bytes += sz
		c.bufferedBytes += sz
		if c.tracker != nil {
			c.bufferedBytes += c.tracker.Add(epoch, d.Digest)
			c.enforceBudgetLocked(epoch)
		}
		c.cfg.Stats.DigestsIngested.Add(1)
		c.arrivedLocked(w, router, kind)
		return
	}
	w.bytes += sz
	c.bufferedBytes += sz
	c.cfg.Stats.DigestsIngested.Add(1)
	c.arrivedLocked(w, router, kind)
}

// rejectLocked records a budget rejection against the window the digest was
// headed for: the refusal is the digest's whole ledger, and the window will
// analyze Degraded with the count on its report. Caller holds c.mu.
func (c *Center) rejectLocked(w *window) {
	w.rejected++
	c.cfg.Stats.RejectedDigests.Add(1)
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
		if len(c.windows) == 0 {
			// MaxEpochs can shrink at runtime (SetMaxEpochs clamps it to
			// >= 1, but belt and braces): with nothing buffered there is
			// nothing to evict, and indexing an empty ring below would
			// panic — or spin, if the bound ever went non-positive.
			break
		}
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
		c.cfg.Stats.DroppedDigests.Add(int64(c.windows[victim].digests()))
		c.cfg.Stats.EpochsEvicted.Add(1)
		c.releaseLocked(victim, c.windows[victim])
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
// the oldest epoch the quorum gate is not holding open goes first; only when
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
		if !c.quorumLocked(e).Hold && (victim < 0 || e < victim) {
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

// EpochDigests returns the digest count buffered for each epoch — the
// quiescence signal daemon.Node's tick policy uses to close an idle epoch.
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
// retires every window that has left all future spans (outside sliding mode:
// exactly this window); later digests for retired epochs count as late.
// ErrNoWindow when the center holds nothing for the epoch, or when a newer
// sliding span already foreclosed this one.
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
	if c.cfg.OwnsSpan != nil && !c.cfg.OwnsSpan(epoch) {
		c.mu.Unlock()
		return WindowReport{Epoch: epoch}, ErrNotOwned
	}
	snap, err := c.closeSpanLocked(epoch)
	c.mu.Unlock()
	if err != nil {
		return WindowReport{Epoch: epoch}, err
	}
	return c.analyzeSpan(snap)
}

// AnalyzeLatestComplete analyzes the newest epoch that is complete — i.e.
// strictly older than the newest epoch any collector has reported, so no
// well-behaved collector is still filling it — and, when quorum gating is
// on, not held open waiting for known-live routers (Quorum). A held epoch
// becomes analyzable once quorum arrives or the fleet moves MaxWait epochs
// past it; it then closes with Degraded/MissingRouters set on the report.
// ErrNoCompleteEpoch when every buffered epoch is newest or held.
// In sliding mode the pick flips to the *oldest* eligible epoch instead:
// spans close in order, every epoch's span is emitted, and boundary content
// is never skipped over by a newer arrival.
func (c *Center) AnalyzeLatestComplete() (WindowReport, error) {
	c.mu.Lock()
	sliding := c.cfg.WindowSlide > 1
	best, found := 0, false
	for e := range c.windows {
		if e >= c.maxSeen || c.quorumLocked(e).Hold {
			continue
		}
		if c.cfg.OwnsSpan != nil && !c.cfg.OwnsSpan(e) {
			continue
		}
		if sliding && c.spanClosedValid && e <= c.spanClosed {
			continue
		}
		if !found || (sliding && e < best) || (!sliding && e > best) {
			best, found = e, true
		}
	}
	if !found {
		c.mu.Unlock()
		return WindowReport{}, ErrNoCompleteEpoch
	}
	snap, err := c.closeSpanLocked(best)
	c.mu.Unlock()
	if err != nil {
		return WindowReport{Epoch: best}, err
	}
	return c.analyzeSpan(snap)
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
func (c *Center) analyzeUnaligned(digests []*unaligned.Digest, meta windowMeta) (*UnalignedOutcome, error) {
	gm, err := unaligned.Merge(digests)
	if err != nil {
		return nil, err
	}
	// Merge guarantees a uniform array count, so k² is well-defined.
	return c.unalignedVerdict(gm.NumVertices(), gm.ArrayBits(), gm.ArraysPerGroup(), len(digests), meta, gm.Vertex,
		func(lt *unaligned.LambdaTable) (*graph.Graph, error) {
			return gm.BuildGraphParallel(lt, c.cfg.Parallelism)
		})
}

// unalignedVerdict is the unaligned decision, shared by the batch and the
// incremental path: they differ only in how build produces the correlation
// graph a λ table admits over the n vertices (arrays per group, bits per
// array) that vertex names. The ER test runs on the graph at the target edge
// probability; only on a detection is the denser core graph built and the
// pattern's vertices folded into routers.
func (c *Center) unalignedVerdict(n, bits, arrays, digests int, meta windowMeta,
	vertex func(int) unaligned.Vertex,
	build func(*unaligned.LambdaTable) (*graph.Graph, error)) (*UnalignedOutcome, error) {
	rowPairs := arrays * arrays

	p1 := c.cfg.TargetP1
	if p1 == 0 {
		p1 = 0.5 / float64(n)
	}
	lt, err := c.lambdaTable(bits, unaligned.PStarForEdgeProbability(p1, rowPairs))
	if err != nil {
		return nil, err
	}
	g, err := build(lt)
	if err != nil {
		return nil, err
	}
	threshold := c.cfg.ComponentThreshold
	if c.cfg.MinRouters > 0 && meta.fleet > 0 && digests < meta.fleet {
		threshold = scaledThreshold(threshold, digests, meta.fleet)
	}
	out := &UnalignedOutcome{
		Vertices: n,
		ER:       unaligned.ERTest(g, threshold),
	}
	if !out.ER.PatternDetected {
		return out, nil
	}

	coreP1 := c.cfg.CoreP1
	if coreP1 == 0 {
		coreP1 = 8 / float64(n)
	}
	coreTable, err := c.lambdaTable(bits, unaligned.PStarForEdgeProbability(coreP1, rowPairs))
	if err != nil {
		return nil, err
	}
	cg, err := build(coreTable)
	if err != nil {
		return nil, err
	}
	found, err := unaligned.FindPattern(cg, unaligned.PatternConfig{Beta: c.cfg.Beta, D: c.cfg.D})
	if err != nil {
		return nil, err
	}
	routerSeen := map[int]bool{}
	for _, v := range found {
		vert := vertex(v)
		out.PatternVertices = append(out.PatternVertices, vert)
		if !routerSeen[vert.RouterID] {
			routerSeen[vert.RouterID] = true
			out.Routers = append(out.Routers, vert.RouterID)
		}
	}
	return out, nil
}
