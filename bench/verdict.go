//go:build linux

package main

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"dcstream/internal/center"
)

// event is one line of the daemon's -events stream: the fields of
// cmd/dcsd's epochEvent the benchmark reads.
type event struct {
	Epoch           int   `json:"epoch"`
	Routers         int   `json:"routers"`
	Degraded        bool  `json:"degraded"`
	Shed            bool  `json:"shed"`
	RejectedDigests int   `json:"rejected_digests"`
	SpanStart       int   `json:"span_start"`
	SpanEpochs      []int `json:"span_epochs"`
	Aligned         *struct {
		Found   bool  `json:"found"`
		Routers []int `json:"routers"`
		Common  int   `json:"common_packets"`
		Core    int   `json:"core_packets"`
	} `json:"aligned"`
	Unaligned *struct {
		Detected  bool  `json:"detected"`
		Largest   int   `json:"largest_component"`
		Threshold int   `json:"threshold"`
		Vertices  int   `json:"vertices"`
		Routers   []int `json:"routers"`
	} `json:"unaligned"`
	WallMS float64 `json:"wall_ms"`
}

// verdict is what a report decided, stripped of epoch numbers and timings so
// reports over identical digests compare equal.
type verdict struct {
	Routers, SpanWidth, SpanEpochs int

	HasAligned     bool
	Found          bool
	AlignedRouters []int
	Common, Core   int

	HasUnaligned                 bool
	Detected                     bool
	Largest, Threshold, Vertices int
	UnalignedRouters             []int
}

func (v verdict) equal(o verdict) bool {
	// Empty and nil router lists both mean "none named".
	if len(v.AlignedRouters) == 0 && len(o.AlignedRouters) == 0 {
		v.AlignedRouters, o.AlignedRouters = nil, nil
	}
	if len(v.UnalignedRouters) == 0 && len(o.UnalignedRouters) == 0 {
		v.UnalignedRouters, o.UnalignedRouters = nil, nil
	}
	return reflect.DeepEqual(v, o)
}

func eventVerdict(ev event) verdict {
	v := verdict{Routers: ev.Routers, SpanWidth: ev.Epoch - ev.SpanStart + 1, SpanEpochs: len(ev.SpanEpochs)}
	if a := ev.Aligned; a != nil {
		v.HasAligned, v.Found, v.AlignedRouters, v.Common, v.Core = true, a.Found, a.Routers, a.Common, a.Core
	}
	if u := ev.Unaligned; u != nil {
		v.HasUnaligned, v.Detected, v.UnalignedRouters = true, u.Detected, u.Routers
		v.Largest, v.Threshold, v.Vertices = u.Largest, u.Threshold, u.Vertices
	}
	return v
}

// reportVerdict reads the same fields from a WindowReport, the way
// cmd/dcsd's event log fills them.
func reportVerdict(rep center.WindowReport) verdict {
	v := verdict{Routers: rep.Routers, SpanWidth: rep.Epoch - rep.SpanStart + 1, SpanEpochs: len(rep.SpanEpochs)}
	if a := rep.Aligned; a != nil {
		v.HasAligned, v.Found, v.AlignedRouters = true, a.Detection.Found, a.RouterIDs
		v.Common, v.Core = len(a.Detection.Cols), len(a.Detection.CoreCols)
	}
	if u := rep.Unaligned; u != nil {
		v.HasUnaligned, v.Detected, v.UnalignedRouters = true, u.ER.PatternDetected, u.Routers
		v.Largest, v.Threshold, v.Vertices = u.ER.LargestComponent, u.ER.Threshold, u.Vertices
	}
	return v
}

// reference computes the verdict a span of epochs must produce, from an
// in-process center in AnalysisBatch mode fed the same digests. Epochs with
// equal variants carry identical digests, so verdicts are cached by the
// span's key sequence.
type reference struct {
	p     *pools
	cache map[string]verdict
}

func newReference(p *pools) *reference {
	return &reference{p: p, cache: map[string]verdict{}}
}

// spanEpochs lists the epochs of the span closing at epoch, given the first
// epoch the daemon ever saw.
func spanEpochs(w workload, first, epoch int) []int {
	start := epoch - w.spanWidth() + 1
	if start < first {
		start = first
	}
	var es []int
	for e := start; e <= epoch; e++ {
		es = append(es, e)
	}
	return es
}

func (r *reference) verdict(first, epoch int) (verdict, error) {
	es := spanEpochs(r.p.w, first, epoch)
	var key strings.Builder
	for _, e := range es {
		key.WriteString(strconv.Itoa(variant(e)))
		key.WriteByte(',')
	}
	if v, ok := r.cache[key.String()]; ok {
		return v, nil
	}
	c := center.New(r.p.w.centerConfig(center.AnalysisBatch))
	for _, e := range es {
		for _, m := range r.p.epochMessages(nil, e) {
			c.Ingest(m)
		}
	}
	rep, err := c.Analyze(epoch)
	if err != nil {
		return verdict{}, fmt.Errorf("reference analysis of epoch %d: %w", epoch, err)
	}
	v := reportVerdict(rep)
	r.cache[key.String()] = v
	return v, nil
}

// truthMismatch checks a verdict against what was planted: a span holding a
// planted epoch must name every carrier in its aligned detection, and hardly
// anyone else (the detector's expansion step may sweep in a router whose
// background happens to cover the pattern's core columns: at most one router
// in 32 here); a span holding none must detect nothing. It returns "" when
// they agree. Only the aligned verdict is held to the truth: the unaligned ER
// test fires on background alone in about one span in 500 at this geometry
// (a false positive of the test, which the reference center reproduces), and
// holding it to the truth would fail seeds at random.
func truthMismatch(w workload, first, epoch int, v verdict) string {
	anyPlanted := false
	for _, e := range spanEpochs(w, first, epoch) {
		anyPlanted = anyPlanted || planted(e)
	}
	if !anyPlanted {
		if v.Found {
			return "aligned detection without planted content"
		}
		return ""
	}
	if !v.Found {
		return "planted content not found"
	}
	named, extra := 0, 0
	for _, r := range v.AlignedRouters {
		if r < w.carriers() {
			named++
		} else {
			extra++
		}
	}
	if named != w.carriers() {
		return fmt.Sprintf("aligned detection names %d of the %d carriers", named, w.carriers())
	}
	if extra > max(1, w.fleet/32) {
		return fmt.Sprintf("aligned detection names %d routers that do not carry the content", extra)
	}
	return ""
}
