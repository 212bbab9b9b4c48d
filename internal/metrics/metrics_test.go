package metrics

import (
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	var h Histogram
	h.SetBuckets([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %v, want 106", got)
	}
	bounds, counts := h.snapshot()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("snapshot shape: %v / %v", bounds, counts)
	}
	// Per-bucket (non-cumulative): (-inf,1]=2 (0.5 and the on-boundary 1),
	// (1,2]=1, (2,4]=1, +Inf=1.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
}

func TestHistogramZeroValueUsesDefBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0.003)
	bounds, _ := h.snapshot()
	if len(bounds) != len(DefBuckets) {
		t.Fatalf("zero-value histogram has %d bounds, want %d", len(bounds), len(DefBuckets))
	}
	// SetBuckets after first Observe is a documented no-op.
	h.SetBuckets([]float64{1})
	bounds, _ = h.snapshot()
	if len(bounds) != len(DefBuckets) {
		t.Fatal("SetBuckets after Observe replaced the bounds")
	}
}

func TestHistogramNonAscendingBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	var h Histogram
	h.SetBuckets([]float64{2, 1})
}

// TestHistogramConcurrentObserve is the -race safety net for the lock-free
// hot path: concurrent observers and a racing scrape must neither lose
// updates in count/sum nor see half-installed bounds.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			h.snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	if got, want := h.Sum(), float64(goroutines*per)*0.001; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	var (
		c Counter
		g Gauge
		h Histogram
	)
	r.RegisterCounter("b_total", "a counter", &c)
	r.RegisterGauge("a_gauge", "a gauge", &g)
	r.GaugeFunc("c_fn", "computed", func() float64 { return 1.5 })
	h.SetBuckets([]float64{0.1, 1})
	r.RegisterHistogram("d_seconds", "latency", &h)
	c.Add(3)
	g.Set(-2)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge a gauge
# TYPE a_gauge gauge
a_gauge -2
# HELP b_total a counter
# TYPE b_total counter
b_total 3
# HELP c_fn computed
# TYPE c_fn gauge
c_fn 1.5
# HELP d_seconds latency
# TYPE d_seconds histogram
d_seconds_bucket{le="0.1"} 1
d_seconds_bucket{le="1"} 2
d_seconds_bucket{le="+Inf"} 3
d_seconds_sum 30.55
d_seconds_count 3
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}

	// The registry's own output must round-trip through its parser.
	parsed, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"b_total":                     3,
		"a_gauge":                     -2,
		"c_fn":                        1.5,
		`d_seconds_bucket{le="0.1"}`:  1,
		`d_seconds_bucket{le="+Inf"}`: 3,
		"d_seconds_sum":               30.55,
		"d_seconds_count":             3,
	} {
		if parsed[name] != v {
			t.Fatalf("parsed[%s] = %v, want %v (all: %v)", name, parsed[name], v, parsed)
		}
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"novalue\n",
		"name notanumber\n",
		"x y 1\n",
		"dup 1\ndup 2\n",
		`weird{other="x"} 1` + "\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseText accepted %q", bad)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	expectPanic("invalid name", func() { r.RegisterCounter("9bad", "", new(Counter)) })
	expectPanic("empty name", func() { r.RegisterCounter("", "", new(Counter)) })
	r.RegisterCounter("x_total", "", new(Counter))
	expectPanic("kind conflict", func() { r.RegisterGauge("x_total", "", new(Gauge)) })
	expectPanic("instance conflict", func() {
		r.RegisterCounter("x_total", "", new(Counter))
	})
	expectPanic("gauge func on a taken name", func() {
		r.GaugeFunc("x_total", "", func() float64 { return 0 })
	})
}

// TestRegistryReregisterSameInstance: attaching the same instance under its
// name again is a no-op, and the exposition still shows it once.
func TestRegistryReregisterSameInstance(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.RegisterCounter("x_total", "", &c)
	r.RegisterCounter("x_total", "", &c)
	c.Add(4)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || parsed["x_total"] != 4 {
		t.Fatalf("exposition %v, want x_total 4 alone", parsed)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.RegisterCounter("x_total", "things", &c)
	c.Add(2)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	parsed, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if parsed["x_total"] != 2 {
		t.Fatalf("x_total = %v, want 2", parsed["x_total"])
	}
	// The scrape-error self-counter registers with the handler and has seen
	// no errors.
	if parsed["dcs_metrics_scrape_errors_total"] != 0 {
		t.Fatalf("scrape errors = %v", parsed["dcs_metrics_scrape_errors_total"])
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("sink gone")
	}
	if len(p) > f.after {
		n := f.after
		f.after = 0
		return n, errors.New("sink gone")
	}
	f.after -= len(p)
	return len(p), nil
}

func TestWriteToSurfacesSinkError(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("x_total", "a very long help string so the write fails midway", new(Counter))
	if _, err := r.WriteTo(&failWriter{after: 10}); err == nil {
		t.Fatal("WriteTo swallowed the sink error")
	}
}
