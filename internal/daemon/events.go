package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dcstream/internal/center"
)

// epochEvent is one line of the -events log: a machine-readable record of
// one analyzed epoch, mirroring what report() logs for humans.
type epochEvent struct {
	Epoch          int   `json:"epoch"`
	Routers        int   `json:"routers"`
	Degraded       bool  `json:"degraded"`
	MissingRouters []int `json:"missing_routers,omitempty"`
	// Shed marks an epoch sacrificed whole to the memory budget: no
	// analysis ran, ShedDigests died with it. RejectedDigests counts
	// digests refused at admission while this epoch's window was open —
	// either way the verdict (or its absence) is explicitly incomplete.
	Shed            bool            `json:"shed,omitempty"`
	ShedDigests     int             `json:"shed_digests,omitempty"`
	RejectedDigests int             `json:"rejected_digests,omitempty"`
	Aligned         *alignedEvent   `json:"aligned,omitempty"`
	Unaligned       *unalignedEvent `json:"unaligned,omitempty"`
	// SpanStart/SpanEpochs/RetiredEpochs describe the analysis span under
	// -slide: the report covers [span_start, epoch] and the retired epochs'
	// buffered state was released with it. Without -slide all three collapse
	// to the event's own epoch.
	SpanStart     int   `json:"span_start"`
	SpanEpochs    []int `json:"span_epochs,omitempty"`
	RetiredEpochs []int `json:"retired_epochs,omitempty"`
	// WallMS is the wall-clock analysis latency for this window in
	// milliseconds (ingest buffering time excluded — that lives in the
	// dcs_center_ingest_to_analyze_seconds histogram).
	WallMS float64 `json:"wall_ms"`
	// Running latency quantiles (milliseconds), interpolated from the
	// center's histograms at emit time: ingest_to_analyze is first-digest to
	// report, finalize is the analyze-path cost alone — the number the
	// incremental mode drives down. Omitted when the center's stats are not
	// attached (tests).
	IngestToAnalyzeP50MS float64 `json:"ingest_to_analyze_p50_ms,omitempty"`
	IngestToAnalyzeP99MS float64 `json:"ingest_to_analyze_p99_ms,omitempty"`
	FinalizeP50MS        float64 `json:"finalize_p50_ms,omitempty"`
	FinalizeP99MS        float64 `json:"finalize_p99_ms,omitempty"`
}

type alignedEvent struct {
	Found      bool  `json:"found"`
	Routers    []int `json:"routers,omitempty"`
	CommonCols int   `json:"common_packets"`
	CoreCols   int   `json:"core_packets"`
}

type unalignedEvent struct {
	Detected         bool  `json:"detected"`
	LargestComponent int   `json:"largest_component"`
	Threshold        int   `json:"threshold"`
	Vertices         int   `json:"vertices"`
	Routers          []int `json:"routers,omitempty"`
}

// eventLog appends one JSON object per analyzed epoch to a writer. Safe for
// concurrent use; each event is a single Encode call, so lines never
// interleave.
type eventLog struct {
	mu    sync.Mutex
	enc   *json.Encoder // guarded by mu
	c     io.Closer     // nil when the sink needs no close (stdout, tests)
	stats *center.Stats // latency histograms for the quantile fields; may be nil
}

// attachStats wires the center's histograms into every subsequent event so
// each line carries the running p50/p99 latencies.
func (l *eventLog) attachStats(s *center.Stats) { l.stats = s }

// openEventLog opens the -events sink: "-" selects stdout, anything else is
// opened (created if needed) in append mode so restarts extend the log.
func openEventLog(path string) (*eventLog, error) {
	if path == "-" {
		return &eventLog{enc: json.NewEncoder(os.Stdout)}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("events: open %s: %w", path, err)
	}
	return &eventLog{enc: json.NewEncoder(f), c: f}, nil
}

// newEventLog wraps an arbitrary writer (tests).
func newEventLog(w io.Writer) *eventLog { return &eventLog{enc: json.NewEncoder(w)} }

// emit writes one epoch's event. Like Close it accepts a nil receiver — no
// -events, nothing to write.
func (l *eventLog) emit(rep center.WindowReport, wall time.Duration) error {
	if l == nil {
		return nil
	}
	ev := epochEvent{
		Epoch:           rep.Epoch,
		Routers:         rep.Routers,
		Degraded:        rep.Degraded,
		MissingRouters:  rep.MissingRouters,
		Shed:            rep.Shed,
		ShedDigests:     rep.ShedDigests,
		RejectedDigests: rep.RejectedDigests,
		SpanStart:       rep.SpanStart,
		SpanEpochs:      rep.SpanEpochs,
		RetiredEpochs:   rep.RetiredEpochs,
		WallMS:          float64(wall.Microseconds()) / 1e3,
	}
	if l.stats != nil {
		ev.IngestToAnalyzeP50MS = l.stats.IngestToAnalyzeSeconds.Quantile(0.5) * 1e3
		ev.IngestToAnalyzeP99MS = l.stats.IngestToAnalyzeSeconds.Quantile(0.99) * 1e3
		ev.FinalizeP50MS = l.stats.FinalizeSeconds.Quantile(0.5) * 1e3
		ev.FinalizeP99MS = l.stats.FinalizeSeconds.Quantile(0.99) * 1e3
	}
	if a := rep.Aligned; a != nil {
		ev.Aligned = &alignedEvent{
			Found:      a.Detection.Found,
			Routers:    a.RouterIDs,
			CommonCols: len(a.Detection.Cols),
			CoreCols:   len(a.Detection.CoreCols),
		}
	}
	if u := rep.Unaligned; u != nil {
		ev.Unaligned = &unalignedEvent{
			Detected:         u.ER.PatternDetected,
			LargestComponent: u.ER.LargestComponent,
			Threshold:        u.ER.Threshold,
			Vertices:         u.Vertices,
			Routers:          u.Routers,
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enc.Encode(ev)
}

// Close closes the underlying file, if any. Nil receivers are fine so call
// sites don't have to guard the no -events case.
func (l *eventLog) Close() error {
	if l == nil || l.c == nil {
		return nil
	}
	return l.c.Close()
}
