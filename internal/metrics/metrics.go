// Package metrics is the observability spine of the analysis center: a
// stdlib-only registry of counters, gauges, and bounded-bucket latency
// histograms with a hand-rolled Prometheus-text-exposition http.Handler.
// The paper's deployment is a tier-1 ISP center correlating digests from
// hundreds of routers every epoch; at that scale an operator needs to *see*
// ingest lag, quorum holds, eviction pressure, and fsync latency, not infer
// them from log lines.
//
// The hot path is lock-free: Counter.Add, Gauge.Set, and Histogram.Observe
// are atomic operations (a histogram takes one sync.Once check, one bucket
// scan over at most a few dozen bounds, and three atomic updates), so the
// transport's per-connection goroutines and the center's ingest path can
// record without contending. Locks exist only at registration and scrape
// time, both cold.
//
// Each layer keeps its counts in exactly one place: these instruments, as
// fields of its own stats struct, each attached to the registry once by a
// Register* call. Every reader — the scrape, `dcsd -stats`, /healthz — Loads
// that same instrument; nothing copies it.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready;
// it must not be copied after first use. Its Add/Load API matches
// atomic.Int64 so existing stats structs can swap field types without
// touching a single call site.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. Counters are monotone by contract;
// passing a negative d corrupts rate() math downstream and is a caller bug.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready; it
// must not be copied after first use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative deltas allowed).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// DefBuckets are the default latency buckets, in seconds: half a
// millisecond through ten seconds, roughly log-spaced. They cover the span
// from a single fsync on NVMe (~0.1–1ms) to a full unaligned analysis of a
// wide window (seconds); anything slower is operationally "too slow" and
// lands in +Inf, which is exactly the signal an operator needs.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a bounded-bucket histogram of float64 observations
// (conventionally seconds). The zero value is ready and uses DefBuckets;
// call SetBuckets before the first Observe to choose different bounds. It
// must not be copied after first use.
//
// Observe is lock-free: after one-time initialization it is a linear scan
// over the bounds plus three atomic updates (bucket, count, CAS-added sum).
type Histogram struct {
	once   sync.Once
	bounds []float64      // immutable after once
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// SetBuckets fixes the bucket upper bounds (ascending, in seconds). It must
// run before the first Observe; once the histogram has initialized — by an
// earlier SetBuckets or a first Observe — later calls are ignored.
func (h *Histogram) SetBuckets(bounds []float64) {
	h.once.Do(func() { h.init(bounds) })
}

// init installs the bounds. Runs exactly once, under h.once.
func (h *Histogram) init(bounds []float64) {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	h.bounds = append([]float64(nil), bounds...)
	h.counts = make([]atomic.Int64, len(bounds)+1)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.once.Do(func() { h.init(nil) })
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (clamped to [0,1]) of the recorded
// observations by linear interpolation inside the owning bucket — the same
// estimate Prometheus's histogram_quantile gives, so a local report and a
// dashboard agree. The +Inf bucket has no upper bound, so quantiles landing
// there report the largest finite bound; an empty histogram reports 0. The
// counts are read without a snapshot cut, which is fine for monitoring.
func (h *Histogram) Quantile(q float64) float64 {
	h.once.Do(func() { h.init(nil) })
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n > 0 && cum+n >= target {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(target-cum)/n
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns (bounds, per-bucket counts) for exposition. It runs the
// same once-initialization as Observe, so a scrape racing the first
// observation sees fully installed bounds, never a half-written slice.
func (h *Histogram) snapshot() ([]float64, []int64) {
	h.once.Do(func() { h.init(nil) })
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// entry is one registered metric.
type entry struct {
	name, help string
	kind       kind
	counter    *Counter
	gauge      *Gauge
	gaugeFn    func() float64
	hist       *Histogram
}

// Registry holds named metrics and writes them in Prometheus text
// exposition format. Registration is cheap but locked; the metric
// operations themselves never touch the registry. A nil *Registry is not
// usable — call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry // guarded by mu
	// scrapeErrors counts expositions cut short by the sink (an HTTP client
	// hanging up mid-scrape). It is registered lazily under
	// "dcs_metrics_scrape_errors_total" by Handler.
	scrapeErrors Counter
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// validName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// add registers e. Re-registering the same instance under its name is a
// no-op — a stats struct may be wired up from more than one place. Anything
// else on a taken name panics: another kind, or a *different* instance, with
// which two subsystems would silently shadow each other's numbers. So does an
// invalid name. Registration happens at process start-up, and a typo'd or
// colliding name is a programming error no caller can meaningfully handle, so
// it fails loudly rather than silently exporting garbage.
func (r *Registry) add(e *entry) {
	if !validName(e.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", e.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.entries[e.name]
	switch {
	case !ok:
		r.entries[e.name] = e
	case prev.kind != e.kind:
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", e.name, e.kind, prev.kind))
	case !prev.sameInstance(e):
		panic(fmt.Sprintf("metrics: %s re-registered with a different %s instance", e.name, e.kind))
	}
}

// sameInstance reports whether two same-kind entries point at the same
// underlying metric value. GaugeFuncs are never the same instance — function
// values are not comparable, and re-registering a computed gauge under a
// taken name is always a collision.
func (e *entry) sameInstance(o *entry) bool {
	switch e.kind {
	case kindCounter:
		return e.counter == o.counter && e.counter != nil
	case kindGauge:
		return e.gauge == o.gauge && e.gauge != nil
	case kindHistogram:
		return e.hist == o.hist && e.hist != nil
	}
	return false
}

// RegisterCounter attaches a Counter — a field of the owning layer's stats
// struct, the one place that count is kept — under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.add(&entry{name: name, help: help, kind: kindCounter, counter: c})
}

// RegisterGauge attaches a Gauge (a stats-struct field), as RegisterCounter.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.add(&entry{name: name, help: help, kind: kindGauge, gauge: g})
}

// GaugeFunc registers a gauge computed by fn at scrape time. fn must be
// safe for concurrent use; it is called without any registry lock held, so
// it may take its owner's locks (e.g. a journal reporting live segments).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&entry{name: name, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// InstanceName splices an instance index into a namespaced metric name:
// InstanceName("dcs_shard", 2, "reports_total") is
// "dcs_shard_2_reports_total". The registry deliberately has no label
// support — exposition stays allocation-free and a name is greppable as a
// literal — so multi-instance subsystems (a coordinator fronting N shards)
// distinguish instances in the name itself; the result stays inside the
// Prometheus name grammar for any non-negative index.
func InstanceName(ns string, instance int, name string) string {
	return fmt.Sprintf("%s_%d_%s", ns, instance, name)
}

// RegisterHistogram attaches a Histogram (a stats-struct field), as
// RegisterCounter.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.add(&entry{name: name, help: help, kind: kindHistogram, hist: h})
}

// errWriter accumulates the first write error so the exposition code reads
// as straight-line formatting while still surfacing every sink failure
// (errcrit's bar applies to this package: a scrape that silently truncated
// would report counters that never add up).
type errWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	n, err := fmt.Fprintf(e.w, format, args...)
	e.n += int64(n)
	e.err = err
}

// fnum renders a float the way Prometheus expects: shortest representation
// that round-trips, "+Inf" for the last histogram bucket.
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo writes every registered metric in Prometheus text exposition
// format (sorted by name, so output is diffable run to run). It implements
// io.WriterTo; the error is the sink's first write error.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	ew := &errWriter{w: w}
	for _, e := range entries {
		ew.printf("# HELP %s %s\n", e.name, e.help)
		ew.printf("# TYPE %s %s\n", e.name, e.kind)
		switch e.kind {
		case kindCounter:
			ew.printf("%s %d\n", e.name, e.counter.Load())
		case kindGauge:
			ew.printf("%s %d\n", e.name, e.gauge.Load())
		case kindGaugeFunc:
			ew.printf("%s %s\n", e.name, fnum(e.gaugeFn()))
		case kindHistogram:
			bounds, counts := e.hist.snapshot()
			cum := int64(0)
			for i, b := range bounds {
				cum += counts[i]
				ew.printf("%s_bucket{le=\"%s\"} %d\n", e.name, fnum(b), cum)
			}
			cum += counts[len(bounds)]
			ew.printf("%s_bucket{le=\"+Inf\"} %d\n", e.name, cum)
			ew.printf("%s_sum %s\n", e.name, fnum(e.hist.Sum()))
			ew.printf("%s_count %d\n", e.name, e.hist.Count())
		}
	}
	return ew.n, ew.err
}

// Handler returns an http.Handler serving the text exposition — mount it at
// /metrics. A client hanging up mid-scrape is counted in
// dcs_metrics_scrape_errors_total (self-registered on first call) rather
// than silently dropped; there is nobody left on the connection to tell.
func (r *Registry) Handler() http.Handler {
	r.RegisterCounter("dcs_metrics_scrape_errors_total",
		"scrapes cut short by a sink write error (client hung up mid-scrape)", &r.scrapeErrors)
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := r.WriteTo(w); err != nil {
			r.scrapeErrors.Add(1)
		}
	})
}
