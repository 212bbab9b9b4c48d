package center

import "dcstream/internal/metrics"

// Stats counts ingest-path events with atomic counters so per-connection
// handler goroutines can bump them locklessly and the daemon can report them
// live. The fields are registry-grade metrics (their Add/Load API matches
// sync/atomic's), so Register can expose the same values on /metrics without
// a second set of books: the scrape and the -stats log can never disagree.
// A Stats must not be copied after first use; the zero value is ready.
type Stats struct {
	// DigestsIngested counts digests accepted into some epoch window as a
	// new (router, epoch, kind) entry. A resend replaces the earlier digest
	// but adds no digest to the window, so it counts in ReplacedDigests
	// instead — DroppedDigests at eviction time drains exactly what
	// DigestsIngested filled.
	DigestsIngested metrics.Counter
	// LateDigests counts digests dropped because their epoch was already
	// analyzed or evicted — the collector fell behind the reorder window.
	LateDigests metrics.Counter
	// DuplicateDigests counts second-or-later digests from one router for
	// one epoch and kind.
	DuplicateDigests metrics.Counter
	// ReplacedDigests counts the duplicates that overwrote the earlier
	// digest in place: every duplicate the memory budget did not refuse.
	// Every message ends in exactly one ledger: ingested, late, replaced or
	// rejected.
	ReplacedDigests metrics.Counter
	// DroppedDigests counts digests lost when their epoch was evicted
	// unanalyzed to make room in the ring.
	DroppedDigests metrics.Counter
	// ShedDigests counts digests lost when their epoch was shed whole for
	// memory pressure (MemoryBudgetBytes + ShedOldest); ShedEpochs counts
	// the windows. Every shed epoch also leaves a tombstone WindowReport —
	// the counters and the reports tell the same story.
	ShedDigests metrics.Counter
	ShedEpochs  metrics.Counter
	// RejectedDigests counts digests refused at admission — by a RejectNew
	// memory budget, or for a shape the center cannot analyze (no groups, an
	// empty or ragged bank, an aligned bitmap under two bits, a resend that
	// changes shape) — their entire ledger; they were never stored.
	RejectedDigests metrics.Counter
	// UnknownMessages counts wire messages of a kind this center does not
	// understand (forward compatibility: ignored, not fatal).
	UnknownMessages metrics.Counter
	// MisroutedDigests counts digests dropped because their epoch fails the
	// OwnsEpoch partition predicate — digests a shard coordinator should
	// never have routed here. Always 0 outside sharded deployments; any
	// other value is a routing bug or a misconfigured client.
	MisroutedDigests metrics.Counter
	// EpochsAnalyzed and EpochsEvicted count window lifecycle endings.
	EpochsAnalyzed metrics.Counter
	EpochsEvicted  metrics.Counter
	// DegradedEpochs counts windows analyzed below the MinRouters quorum
	// (a subset of EpochsAnalyzed; always 0 with quorum gating off).
	DegradedEpochs metrics.Counter
	// Closed counts windows analyzed by CloseNext, indexed by the rule of
	// the close policy that closed them. A fleet on the fast path closes by
	// CloseComplete; one whose closes move to CloseSuperseded and
	// CloseQuiescent has a silent router or is losing digests.
	Closed [numCloseCauses]metrics.Counter
	// IngestToAnalyzeSeconds is the latency from a window's first ingested
	// digest to the completion of its analysis — the operator's view of how
	// far behind the fleet the center is running.
	IngestToAnalyzeSeconds metrics.Histogram
	// FinalizeSeconds is the wall time Analyze spends producing a report
	// once the span snapshot detaches — the cost the incremental path
	// drives down from a full rebuild to a replay of maintained state.
	FinalizeSeconds metrics.Histogram
}

// CloseCause says which rule of the close policy closed a window.
type CloseCause int

const (
	// CloseComplete: every digest the window expected had been stored.
	CloseComplete CloseCause = iota
	// CloseSuperseded: a newer epoch had been seen and the quorum gate was
	// not holding the window.
	CloseSuperseded
	// CloseQuiescent: the window stored nothing for a full tick (including a
	// quorum hold running out of ticks).
	CloseQuiescent
	// CloseDrain: the shutdown drain closed what was still buffered.
	CloseDrain
	numCloseCauses
)

func (c CloseCause) String() string {
	return [numCloseCauses]string{"complete", "superseded", "quiescent", "drain"}[c]
}

// centerLatencyBuckets replaces metrics.DefBuckets on the center's latency
// histograms. The defaults start at 0.5ms and stop at 10s — too coarse at
// both ends here: an incremental finalize lands in tens of microseconds
// (everything below 0.5ms collapsed into one bucket, so p50 and p99 were
// indistinguishable), while a quorum-held window can take minutes from
// first digest to analysis (saturating +Inf). Roughly log-spaced,
// 10µs..60s, ~4 buckets per decade.
var centerLatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Register exposes every counter (and the ingest→analyze histogram) on r
// under dcs_center_* names. The fields stay the single source of truth:
// registration attaches them, it does not copy them, so `dcsd -stats` and a
// /metrics scrape always print the same numbers.
func (s *Stats) Register(r *metrics.Registry) {
	r.RegisterCounter("dcs_center_digests_ingested_total",
		"digests accepted into an epoch window as a new (router, epoch, kind) entry", &s.DigestsIngested)
	r.RegisterCounter("dcs_center_digests_late_total",
		"digests dropped because their epoch was already analyzed or evicted", &s.LateDigests)
	r.RegisterCounter("dcs_center_digests_duplicate_total",
		"second-or-later digests from one router for one epoch and kind", &s.DuplicateDigests)
	r.RegisterCounter("dcs_center_digests_replaced_total",
		"duplicates that overwrote the earlier digest in place", &s.ReplacedDigests)
	r.RegisterCounter("dcs_center_digests_dropped_total",
		"digests lost when their epoch was evicted unanalyzed", &s.DroppedDigests)
	r.RegisterCounter("dcs_center_shed_digests_total",
		"digests lost with epochs shed whole for memory pressure", &s.ShedDigests)
	r.RegisterCounter("dcs_center_shed_epochs_total",
		"epoch windows shed whole for memory pressure", &s.ShedEpochs)
	r.RegisterCounter("dcs_center_shed_rejected_total",
		"digests refused at admission, by a RejectNew memory budget or for their shape", &s.RejectedDigests)
	r.RegisterCounter("dcs_center_messages_unknown_total",
		"wire messages of an unknown kind (ignored)", &s.UnknownMessages)
	r.RegisterCounter("dcs_center_digests_misrouted_total",
		"digests dropped because their epoch fails the shard partition predicate", &s.MisroutedDigests)
	r.RegisterCounter("dcs_center_epochs_analyzed_total",
		"epoch windows closed by analysis", &s.EpochsAnalyzed)
	for cause := CloseCause(0); cause < numCloseCauses; cause++ {
		r.RegisterCounter("dcs_center_epochs_closed_"+cause.String()+"_total",
			"epoch windows closed by analysis, by the close-policy rule that closed them: "+cause.String(), &s.Closed[cause])
	}
	r.RegisterCounter("dcs_center_epochs_evicted_total",
		"epoch windows evicted unanalyzed to make ring room", &s.EpochsEvicted)
	r.RegisterCounter("dcs_center_epochs_degraded_total",
		"epoch windows analyzed below the MinRouters quorum", &s.DegradedEpochs)
	r.RegisterHistogram("dcs_center_ingest_to_analyze_seconds",
		"latency from a window's first digest to its analysis completing", &s.IngestToAnalyzeSeconds)
	r.RegisterHistogram("dcs_center_finalize_seconds",
		"wall time from span detach to report, the analyze-path cost", &s.FinalizeSeconds)
}
