//go:build linux

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded call: where it started and ended (nanoseconds since
// the tracer started), the span that caused it (-1 for a root) and the epoch
// it worked for, which is the trace id all spans of one epoch share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Epoch  int    `json:"epoch"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the replica's untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, epoch int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Epoch: epoch})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// startOf returns when span id began.
func (t *tracer) startOf(id int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.t0.Add(time.Duration(t.spans[id].Start))
}

// add records a span whose ends were observed elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent, epoch int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Epoch: epoch})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// durations lists, in microseconds, every finished span with the given name
// that belongs to an epoch from firstEpoch on.
func durations(spans []span, name string, firstEpoch int) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Epoch >= firstEpoch && s.End > 0 {
			out = append(out, float64(s.dur().Nanoseconds())/1e3)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Environment map[string]any    `json:"environment"`
	Metrics     map[string]metric `json:"metrics"`
	Spans       []span            `json:"spans"`
}

func writeTrace(root string, tf traceFile) (string, error) {
	path := filepath.Join(outDir(root), "trace-"+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
