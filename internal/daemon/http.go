package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"dcstream/internal/center"
	"dcstream/internal/journal"
	"dcstream/internal/metrics"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

// epochHealth is one buffered epoch's quorum state as /healthz reports it.
type epochHealth struct {
	Epoch    int   `json:"epoch"`
	Digests  int   `json:"digests"`
	Reported int   `json:"reported"`
	Missing  []int `json:"missing,omitempty"`
	Held     bool  `json:"held"`
}

// journalHealth is the write-ahead log's degradation state: the probe's view
// of whether ingest is still crash-durable, and how much history a crash
// right now would cost.
type journalHealth struct {
	Degraded bool   `json:"degraded"`
	Cause    string `json:"cause,omitempty"`
	// UnjournaledFrames is how many admitted digests have no durable record
	// — the honest bound on post-crash replay loss.
	UnjournaledFrames   int `json:"unjournaled_frames"`
	SegmentsQuarantined int `json:"segments_quarantined"`
}

// shardHealth is one shard's row of the coordinator's /healthz rollup, a
// JSON rendering of the coordinator's health ledger.
type shardHealth struct {
	Shard int  `json:"shard"`
	Dead  bool `json:"dead,omitempty"`
	// DegradedCause is empty for a healthy shard, else the first applicable
	// of "dead", "journal-degraded", "expired-spans", "send-errors".
	DegradedCause   string `json:"degraded_cause,omitempty"`
	Routed          int64  `json:"routed"`
	SendErrors      int64  `json:"send_errors,omitempty"`
	Reports         int64  `json:"reports"`
	Expired         int64  `json:"expired,omitempty"`
	LastRoutedEpoch *int   `json:"last_routed_epoch,omitempty"`
	LastReportEpoch *int   `json:"last_report_epoch,omitempty"`
	HeldEpochs      int    `json:"held_epochs,omitempty"`
}

// health is the /healthz payload. Status is "ok" while every subsystem holds
// its guarantees and "degraded" while any is shedding them (journal appends
// suspended, a shard dead or silent) — still HTTP 200, because the daemon is
// up and honest about what it is dropping; probes that page on degradation
// match on the status string.
type health struct {
	Status string `json:"status"`
	// BufferedBytes is the byte-accounted size of all buffered epoch
	// windows (what -mem-budget constrains); ShedEpochs counts windows
	// sacrificed to that budget so far.
	BufferedBytes int64          `json:"buffered_bytes"`
	ShedEpochs    int64          `json:"shed_epochs"`
	Journal       *journalHealth `json:"journal,omitempty"`
	// QuarantinedSenders lists hosts currently refused by the transport
	// admission gates (TCP and UDP merged).
	QuarantinedSenders []string      `json:"quarantined_senders,omitempty"`
	Epochs             []epochHealth `json:"epochs"`
	// Shards is the coordinator's per-shard rollup; the whole payload goes
	// degraded if any shard is.
	Shards []shardHealth `json:"shards,omitempty"`
}

// httpDeps are the optional subsystems /healthz reports on; zero fields are
// simply absent from the payload.
type httpDeps struct {
	jr  *journal.Journal
	tcp *transport.Server
	udp *transport.UDPServer
	co  *shard.Coordinator
}

// newHTTPHandler builds the -http endpoint surface: /metrics (Prometheus
// text exposition of the registry), /healthz (quorum state per buffered
// epoch plus journal/budget/quarantine degradation, and the per-shard rollup
// in coordinator mode), and /debug/pprof (the standard Go profiler
// handlers). The center is nil in coordinator mode — the coordinator has no
// windows of its own to report.
func newHTTPHandler(reg *metrics.Registry, c *center.Center, deps httpDeps) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := health{
			Status: "ok",
			Epochs: []epochHealth{},
		}
		if c != nil {
			h.BufferedBytes = c.BufferedBytes()
			h.ShedEpochs = c.Stats().ShedEpochs.Load()
		}
		if deps.jr != nil {
			js := deps.jr.Stats()
			jh := &journalHealth{
				Degraded:            js.Degraded.Load() != 0,
				UnjournaledFrames:   int(js.UnjournaledFrames.Load()),
				SegmentsQuarantined: int(js.SegmentsQuarantined.Load()),
			}
			if cause := deps.jr.DegradedCause(); cause != nil {
				jh.Cause = cause.Error()
			}
			h.Journal = jh
			if jh.Degraded {
				h.Status = "degraded"
			}
		}
		if deps.tcp != nil {
			h.QuarantinedSenders = append(h.QuarantinedSenders, deps.tcp.QuarantinedSenders()...)
		}
		if deps.udp != nil {
			h.QuarantinedSenders = append(h.QuarantinedSenders, deps.udp.QuarantinedSenders()...)
		}
		if c != nil {
			counts := c.EpochDigests()
			for _, e := range c.Epochs() {
				q := c.Quorum(e)
				h.Epochs = append(h.Epochs, epochHealth{
					Epoch:    e,
					Digests:  counts[e],
					Reported: q.Reported,
					Missing:  q.Missing,
					Held:     q.Hold,
				})
			}
		}
		if deps.co != nil {
			for _, sh := range deps.co.Healths() {
				row := shardHealth{
					Shard:         sh.Shard,
					Dead:          sh.Dead,
					DegradedCause: sh.DegradedCause,
					Routed:        sh.Routed,
					SendErrors:    sh.SendErrors,
					Reports:       sh.Reports,
					Expired:       sh.Expired,
					HeldEpochs:    sh.HeldEpochs,
				}
				if sh.HasRouted {
					e := sh.LastRoutedEpoch
					row.LastRoutedEpoch = &e
				}
				if sh.HasReport {
					e := sh.LastReportEpoch
					row.LastReportEpoch = &e
				}
				if sh.DegradedCause != "" {
					h.Status = "degraded"
				}
				h.Shards = append(h.Shards, row)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		// An encode error here means the probe hung up mid-response; there
		// is no one left on the connection to tell.
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
