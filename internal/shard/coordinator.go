package shard

import (
	"sort"
	"sync"

	"dcstream/internal/center"
	"dcstream/internal/metrics"
	"dcstream/internal/transport"
)

// Sender is the outbound half of a transport client — satisfied by
// transport.Client, transport.ReconnectingClient, and
// transport.BatchingUDPClient — so the coordinator scatters over whichever
// transport the deployment dials with.
type Sender interface {
	Send(m transport.Message) error
}

// MergedReport is one entry of the coordinator's merged verdict stream.
type MergedReport struct {
	// Shard produced the report — or, when Synthesized, owned the span that
	// never reported.
	Shard int
	// Synthesized marks a report the coordinator fabricated for a span whose
	// owner died or went silent: Degraded, no analysis, the routed routers
	// listed missing. Degraded-never-wrong — the gap is reported, never
	// skipped and never guessed at.
	Synthesized bool
	// Report is the shard's verdict verbatim (bit-identical to what the
	// shard produced), or the synthetic tombstone.
	Report center.WindowReport
}

// Health is one shard's row in the coordinator's health ledger.
type Health struct {
	// Shard is the row's shard index.
	Shard int
	// Dead marks a shard the operator (or a chaos test) declared gone;
	// its unreported spans synthesize immediately.
	Dead bool
	// Routed counts digest sends attempted to this shard; SendErrors counts
	// the ones the transport refused. Routed minus SendErrors is what the
	// shard should have received.
	Routed, SendErrors int64
	// Reports counts report envelopes gathered from this shard; Expired
	// counts its pending spans given up on by ExpireStale.
	Reports, Expired int64
	// LastRoutedEpoch / LastReportEpoch are the newest epoch routed to and
	// reported by the shard (valid when the Has flag is set) — together the
	// "last-seen epoch" the ledger tracks from both directions.
	LastRoutedEpoch int
	HasRouted       bool
	LastReportEpoch int
	HasReport       bool
	// DegradedCause is "" for a healthy shard, else the first applicable of
	// "dead", "journal-degraded", "expired-spans", "send-errors".
	DegradedCause string
	// HeldEpochs is the shard's own quorum-held count from its latest
	// report envelope.
	HeldEpochs int
}

// healthState is the mutable ledger row behind a Health. All fields are
// guarded by the coordinator's mu.
type healthState struct {
	dead            bool
	routed          int64
	sendErrors      int64
	reports         int64
	expired         int64
	lastRoutedEpoch int
	hasRouted       bool
	lastReportEpoch int
	hasReport       bool
	journalDegraded bool
	heldEpochs      int
}

func (h *healthState) degradedCause() string {
	switch {
	case h.dead:
		return "dead"
	case h.journalDegraded:
		return "journal-degraded"
	case h.expired > 0:
		return "expired-spans"
	case h.sendErrors > 0:
		return "send-errors"
	}
	return ""
}

// pendingEpoch records one routed-but-unresolved epoch: which shard owes
// its report and which routers fed it (the MissingRouters of a synthetic
// tombstone, should the owner never answer).
type pendingEpoch struct {
	owner   int
	routers map[int]bool
	digests int
	expired bool
}

// gatheredReport is a report received and not yet emitted.
type gatheredReport struct {
	shard  int
	report center.WindowReport
}

// Stats are the coordinator's own counters, each the instrument
// RegisterMetrics exports. The zero value is ready; a Stats must not be
// copied after first use.
type Stats struct {
	// UnknownMessages counts routed messages of no known kind (dropped).
	UnknownMessages metrics.Counter
	// LateDigests counts digests for epochs the merge already emitted —
	// forwarded nowhere, the shards would only count them late themselves.
	LateDigests metrics.Counter
	// BadReports counts report frames that failed to decode or named an
	// out-of-range shard; DuplicateReports counts second-or-later reports
	// for one epoch (resolved by center.BetterReport, never emitted twice).
	BadReports, DuplicateReports metrics.Counter
	// Merged counts reports emitted by TakeMerged; Synthesized counts the
	// subset fabricated for dead or expired owners.
	Merged, Synthesized metrics.Counter
}

// Coordinator scatters digests across shards by the partition and gathers
// their reports back into one epoch-ascending verdict stream. It is safe
// for concurrent use: transport handler goroutines call Route and Gather
// while a drain loop calls TakeMerged.
//
// The merge preserves the existing single-center total order — reports
// emerge in strictly ascending epoch order, exactly as one center's
// oldest-first drain produces them — by blocking at the oldest routed epoch
// whose live owner has not reported yet. Dead (MarkDead) and expired
// (ExpireStale) owners do not block: their spans synthesize as Degraded
// tombstones naming the routed routers missing, so a lost shard degrades
// the merged stream but never reorders, drops, or falsifies it.
type Coordinator struct {
	part   Partition
	shards []Sender // immutable after New; the senders synchronize themselves

	mu       sync.Mutex
	health   []healthState          // guarded by mu
	pending  map[int]*pendingEpoch  // guarded by mu
	gathered map[int]gatheredReport // guarded by mu
	// emitted is the merge watermark: epochs at or below it are resolved,
	// and late reports for them count duplicate. guarded by mu
	emitted      int  // guarded by mu
	emittedValid bool // guarded by mu
	// maxRouted is the newest epoch ever routed — the fleet clock
	// ExpireStale measures staleness against. guarded by mu
	maxRouted      int  // guarded by mu
	maxRoutedValid bool // guarded by mu
	stats          Stats

	// wake is poked (never blocked on) when Gather files a report the merge
	// might now emit. Immutable after New.
	wake chan struct{}
}

// NewCoordinator builds a coordinator scattering over the given senders,
// one per shard. The partition's Shards must equal len(senders); the
// partition is truth, so the senders slice is clamped against it by panic —
// a mismatched deployment must fail at startup, not misroute quietly.
func NewCoordinator(part Partition, senders []Sender) *Coordinator {
	part = part.withDefaults()
	if len(senders) != part.Shards {
		panic("shard: sender count does not match partition shard count")
	}
	return &Coordinator{
		part:     part,
		shards:   senders,
		health:   make([]healthState, part.Shards),
		pending:  make(map[int]*pendingEpoch),
		gathered: make(map[int]gatheredReport),
		wake:     make(chan struct{}, 1),
	}
}

// Partition returns the partition the coordinator routes by.
func (co *Coordinator) Partition() Partition { return co.part }

// Route scatters one ingest message to every shard whose spans need it and
// records the epoch in the pending ledger under its owner. Report frames
// are forwarded to Gather so a single transport handler can feed the
// coordinator everything it receives. Send errors are counted per shard,
// never fatal: a missing report is handled by the merge, not the router.
func (co *Coordinator) Route(m transport.Message) {
	var epoch, router int
	switch d := m.(type) {
	case transport.AlignedDigest:
		epoch, router = d.Epoch, d.RouterID
	case transport.UnalignedDigest:
		epoch, router = d.Epoch, d.Digest.RouterID
	case transport.Report:
		co.Gather(d)
		return
	default:
		co.mu.Lock()
		co.stats.UnknownMessages.Inc()
		co.mu.Unlock()
		return
	}
	targets := co.part.ShardsFor(epoch)
	co.mu.Lock()
	if !co.maxRoutedValid || epoch > co.maxRouted {
		co.maxRouted, co.maxRoutedValid = epoch, true
	}
	if co.emittedValid && epoch <= co.emitted {
		// The merge already resolved this epoch; the owning shard would only
		// count the digest late. Drop it here and say so.
		co.stats.LateDigests.Inc()
		co.mu.Unlock()
		return
	}
	pe := co.pending[epoch]
	if pe == nil {
		pe = &pendingEpoch{owner: co.part.Owner(epoch), routers: make(map[int]bool)}
		co.pending[epoch] = pe
	}
	pe.routers[router] = true
	pe.digests++
	for _, t := range targets {
		co.health[t].routed++
		if !co.health[t].hasRouted || epoch > co.health[t].lastRoutedEpoch {
			co.health[t].lastRoutedEpoch, co.health[t].hasRouted = epoch, true
		}
	}
	co.mu.Unlock()
	// Send outside the lock: a backpressured shard connection must not stall
	// routing state for the others.
	for _, t := range targets {
		if err := co.shards[t].Send(m); err != nil {
			co.mu.Lock()
			co.health[t].sendErrors++
			co.mu.Unlock()
		}
	}
}

// Gather files one report envelope from a shard: health ledger first, then
// the merge buffer, with duplicates for one epoch resolved by
// center.BetterReport and epochs below the merge watermark counted
// duplicate outright (a shard re-pushing after journal replay).
func (co *Coordinator) Gather(m transport.Report) {
	env, err := DecodeReport(m)
	co.mu.Lock()
	defer co.mu.Unlock()
	if err != nil || env.Shard < 0 || env.Shard >= len(co.health) {
		co.stats.BadReports.Inc()
		return
	}
	h := &co.health[env.Shard]
	h.reports++
	h.journalDegraded = h.journalDegraded || env.JournalDegraded
	h.heldEpochs = env.HeldEpochs
	e := env.Report.Epoch
	if !h.hasReport || e > h.lastReportEpoch {
		h.lastReportEpoch, h.hasReport = e, true
	}
	if co.emittedValid && e <= co.emitted {
		co.stats.DuplicateReports.Inc()
		return
	}
	if g, ok := co.gathered[e]; ok {
		co.stats.DuplicateReports.Inc()
		if !center.BetterReport(env.Report, g.report) {
			return
		}
	}
	co.gathered[e] = gatheredReport{shard: env.Shard, report: env.Report}
	// Cannot block (capacity 1, dropped while a poke is pending), so sending
	// under co.mu is safe.
	select {
	case co.wake <- struct{}{}:
	default:
	}
}

// Gathered is poked whenever Gather has filed a report: TakeMerged may have
// something to emit without waiting for the owner of the merge's clock to
// tick. One pending poke stands for any number of reports.
func (co *Coordinator) Gathered() <-chan struct{} { return co.wake }

// MarkDead declares a shard gone: its pending spans synthesize on the next
// TakeMerged instead of blocking the merge, and its health row reports
// cause "dead". Out-of-range indices are ignored.
func (co *Coordinator) MarkDead(i int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if i >= 0 && i < len(co.health) {
		co.health[i].dead = true
	}
}

// ExpireStale gives up on pending epochs the fleet has advanced at least
// horizon epochs past without their owner reporting — the same
// epoch-driven liveness rule as the centers' quorum MaxWait, so a silent
// shard cannot wedge the merge while wall clocks stay out of the verdict
// path entirely. Horizon 0 expires every un-gathered pending epoch (the
// shutdown drain). Returns how many epochs it expired.
func (co *Coordinator) ExpireStale(horizon int) int {
	if horizon < 0 {
		horizon = 0
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.maxRoutedValid {
		return 0
	}
	n := 0
	for e, pe := range co.pending {
		if pe.expired {
			continue
		}
		if _, ok := co.gathered[e]; ok {
			continue
		}
		if co.maxRouted-e >= horizon {
			pe.expired = true
			co.health[pe.owner].expired++
			n++
		}
	}
	return n
}

// TakeMerged drains every report that can be emitted while preserving the
// total order: epochs ascending, each emitted exactly once. A gathered
// report is emitted verbatim; a pending epoch whose owner is dead or
// expired synthesizes a Degraded tombstone; the first pending epoch with a
// live, still-owing owner stops the walk — nothing newer may overtake it.
func (co *Coordinator) TakeMerged() []MergedReport {
	co.mu.Lock()
	defer co.mu.Unlock()
	epochs := make([]int, 0, len(co.pending)+len(co.gathered))
	seen := make(map[int]bool, len(co.pending)+len(co.gathered))
	for e := range co.pending {
		if !seen[e] {
			seen[e] = true
			epochs = append(epochs, e)
		}
	}
	for e := range co.gathered {
		if !seen[e] {
			seen[e] = true
			epochs = append(epochs, e)
		}
	}
	sort.Ints(epochs)
	var out []MergedReport
	for _, e := range epochs {
		if g, ok := co.gathered[e]; ok {
			out = append(out, MergedReport{Shard: g.shard, Report: g.report})
			delete(co.gathered, e)
			delete(co.pending, e)
			co.emitted, co.emittedValid = e, true
			co.stats.Merged.Inc()
			continue
		}
		pe := co.pending[e]
		if !co.health[pe.owner].dead && !pe.expired {
			break
		}
		out = append(out, MergedReport{Shard: pe.owner, Synthesized: true, Report: co.synthLocked(e, pe)})
		delete(co.pending, e)
		co.emitted, co.emittedValid = e, true
		co.stats.Merged.Inc()
		co.stats.Synthesized.Inc()
	}
	return out
}

// synthLocked fabricates the Degraded tombstone for a span whose owner
// never reported: no analysis, every routed router listed missing. Caller
// holds co.mu.
func (co *Coordinator) synthLocked(epoch int, pe *pendingEpoch) center.WindowReport {
	missing := make([]int, 0, len(pe.routers))
	for r := range pe.routers {
		missing = append(missing, r)
	}
	sort.Ints(missing)
	return center.WindowReport{
		Epoch:          epoch,
		Degraded:       true,
		MissingRouters: missing,
		SpanStart:      epoch - co.part.Slide + 1,
	}
}

// Healths returns the per-shard health ledger, one row per shard.
func (co *Coordinator) Healths() []Health {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]Health, len(co.health))
	for i := range co.health {
		h := &co.health[i]
		out[i] = Health{
			Shard:           i,
			Dead:            h.dead,
			Routed:          h.routed,
			SendErrors:      h.sendErrors,
			Reports:         h.reports,
			Expired:         h.expired,
			LastRoutedEpoch: h.lastRoutedEpoch,
			HasRouted:       h.hasRouted,
			LastReportEpoch: h.lastReportEpoch,
			HasReport:       h.hasReport,
			DegradedCause:   h.degradedCause(),
			HeldEpochs:      h.heldEpochs,
		}
	}
	return out
}

// Stats returns the coordinator's counters, live.
func (co *Coordinator) Stats() *Stats { return &co.stats }

// RegisterMetrics exposes the coordinator under the dcs_shard_* namespace:
// fleet-wide aggregates plus per-shard instance rows (the registry has no
// labels, so instances live in the name — dcs_shard_0_reports_total). The
// merge counters are the Stats instruments; the rest are computed at scrape
// time under the coordinator's lock. Scrapes are cold, routing never takes
// registry locks.
func (co *Coordinator) RegisterMetrics(r *metrics.Registry) {
	sum := func(f func(*healthState) float64) func() float64 {
		return func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			t := 0.0
			for i := range co.health {
				t += f(&co.health[i])
			}
			return t
		}
	}
	r.GaugeFunc("dcs_shard_routed_total",
		"digest sends attempted across all shards", sum(func(h *healthState) float64 { return float64(h.routed) }))
	r.GaugeFunc("dcs_shard_send_errors_total",
		"digest sends refused by shard transports", sum(func(h *healthState) float64 { return float64(h.sendErrors) }))
	r.GaugeFunc("dcs_shard_reports_total",
		"report envelopes gathered from all shards", sum(func(h *healthState) float64 { return float64(h.reports) }))
	r.GaugeFunc("dcs_shard_expired_total",
		"pending spans expired across all shards", sum(func(h *healthState) float64 { return float64(h.expired) }))
	r.GaugeFunc("dcs_shard_dead",
		"shards currently marked dead", sum(func(h *healthState) float64 {
			if h.dead {
				return 1
			}
			return 0
		}))
	r.RegisterCounter("dcs_shard_merged_total",
		"reports emitted by the merge, synthesized included", &co.stats.Merged)
	r.RegisterCounter("dcs_shard_synthesized_total",
		"degraded tombstones fabricated for dead or expired owners", &co.stats.Synthesized)
	r.RegisterCounter("dcs_shard_reports_bad_total",
		"report frames that failed to decode or named a bad shard", &co.stats.BadReports)
	r.RegisterCounter("dcs_shard_reports_duplicate_total",
		"second-or-later reports for one epoch", &co.stats.DuplicateReports)
	r.GaugeFunc("dcs_shard_pending_epochs",
		"routed epochs awaiting their owner's report", func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			return float64(len(co.pending))
		})
	r.GaugeFunc("dcs_shard_gathered_epochs",
		"reports gathered and awaiting merge order", func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			return float64(len(co.gathered))
		})
	for i := 0; i < co.part.Shards; i++ {
		// The closures index co.health only after taking the lock; the slice
		// itself is fixed at construction, so the index stays valid.
		pin := func(f func(h *healthState) float64) func() float64 {
			return func() float64 {
				co.mu.Lock()
				defer co.mu.Unlock()
				return f(&co.health[i])
			}
		}
		r.GaugeFunc(metrics.InstanceName("dcs_shard", i, "routed_total"),
			"digest sends attempted to this shard", pin(func(h *healthState) float64 { return float64(h.routed) }))
		r.GaugeFunc(metrics.InstanceName("dcs_shard", i, "send_errors_total"),
			"digest sends refused by this shard's transport", pin(func(h *healthState) float64 { return float64(h.sendErrors) }))
		r.GaugeFunc(metrics.InstanceName("dcs_shard", i, "reports_total"),
			"report envelopes gathered from this shard", pin(func(h *healthState) float64 { return float64(h.reports) }))
		r.GaugeFunc(metrics.InstanceName("dcs_shard", i, "expired_total"),
			"pending spans of this shard expired by the merge", pin(func(h *healthState) float64 { return float64(h.expired) }))
		r.GaugeFunc(metrics.InstanceName("dcs_shard", i, "dead"),
			"1 when this shard is marked dead", pin(func(h *healthState) float64 {
				if h.dead {
					return 1
				}
				return 0
			}))
		r.GaugeFunc(metrics.InstanceName("dcs_shard", i, "held_epochs"),
			"quorum-held epochs the shard last reported", pin(func(h *healthState) float64 { return float64(h.heldEpochs) }))
	}
}
