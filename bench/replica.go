//go:build linux

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/journal"
	"dcstream/internal/transport"
)

// replica is an in-process copy of the dcsd ingest handler and tick loop,
// assembled from the layers' public functions in the order cmd/dcsd/main.go
// uses them, with a span recorded around every call. It exists only because
// the daemon's assembly lives inside main() today; the end-to-end metrics
// never come from it, and its processor time per digest is checked against
// the real daemon's so the copy cannot drift unnoticed.
type replica struct {
	w   workload
	tr  *tracer // nil on the untraced pass
	dir string

	c    *center.Center
	jr   *journal.Journal
	srv  *transport.Server
	usrv *transport.UDPServer
	logf *os.File
	logr *log.Logger
	evf  *os.File
	enc  *json.Encoder

	events   chan stamped // one per report, after its event line is written
	stopTick chan struct{}
	tickDone chan struct{}

	ticking bool // the tick goroutine was started

	mu      sync.Mutex
	roots   map[int]int       // epoch -> its root span; guarded by mu
	lastEnd map[int]time.Time // epoch -> when its latest handler call returned; guarded by mu
}

// replicaEvent has the fields and the encoding work of cmd/dcsd's epochEvent.
type replicaEvent struct {
	Epoch                int               `json:"epoch"`
	Routers              int               `json:"routers"`
	Degraded             bool              `json:"degraded"`
	MissingRouters       []int             `json:"missing_routers,omitempty"`
	Shed                 bool              `json:"shed,omitempty"`
	ShedDigests          int               `json:"shed_digests,omitempty"`
	RejectedDigests      int               `json:"rejected_digests,omitempty"`
	Aligned              *replicaAligned   `json:"aligned,omitempty"`
	Unaligned            *replicaUnaligned `json:"unaligned,omitempty"`
	SpanStart            int               `json:"span_start"`
	SpanEpochs           []int             `json:"span_epochs,omitempty"`
	RetiredEpochs        []int             `json:"retired_epochs,omitempty"`
	WallMS               float64           `json:"wall_ms"`
	IngestToAnalyzeP50MS float64           `json:"ingest_to_analyze_p50_ms,omitempty"`
	IngestToAnalyzeP99MS float64           `json:"ingest_to_analyze_p99_ms,omitempty"`
	FinalizeP50MS        float64           `json:"finalize_p50_ms,omitempty"`
	FinalizeP99MS        float64           `json:"finalize_p99_ms,omitempty"`
}

type replicaAligned struct {
	Found      bool  `json:"found"`
	Routers    []int `json:"routers,omitempty"`
	CommonCols int   `json:"common_packets"`
	CoreCols   int   `json:"core_packets"`
}

type replicaUnaligned struct {
	Detected         bool  `json:"detected"`
	LargestComponent int   `json:"largest_component"`
	Threshold        int   `json:"threshold"`
	Vertices         int   `json:"vertices"`
	Routers          []int `json:"routers,omitempty"`
}

func startReplica(w workload, root string, tr *tracer) (*replica, error) {
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir(root), "replica-")
	if err != nil {
		return nil, err
	}
	r := &replica{
		w: w, tr: tr, dir: dir,
		events:   make(chan stamped, 4096), // never the reason a report waits
		stopTick: make(chan struct{}), tickDone: make(chan struct{}),
		roots: map[int]int{}, lastEnd: map[int]time.Time{},
	}
	fail := func(err error) (*replica, error) {
		r.stop()
		return nil, err
	}
	r.c = center.New(w.centerConfig(center.AnalysisIncremental))
	if r.logf, err = os.Create(filepath.Join(dir, "stderr.log")); err != nil {
		return fail(err)
	}
	r.logr = log.New(r.logf, "", log.LstdFlags)
	if r.evf, err = os.Create(filepath.Join(dir, "events.jsonl")); err != nil {
		return fail(err)
	}
	r.enc = json.NewEncoder(r.evf)
	if r.jr, err = journal.Open(filepath.Join(dir, "journal"), journal.Options{SyncEveryAppend: true}); err != nil {
		return fail(err)
	}
	if r.srv, err = transport.ServeConfig("127.0.0.1:0", r.handle, transport.ServerConfig{ReadTimeout: 2 * time.Minute}); err != nil {
		return fail(err)
	}
	if w.udp {
		if r.usrv, err = transport.ServeUDPConfig("127.0.0.1:0", r.handle, transport.UDPServerConfig{}); err != nil {
			return fail(err)
		}
	}
	r.ticking = true
	go r.tickLoop(tick)
	return r, nil
}

func (r *replica) udpAddr() string {
	if r.usrv == nil {
		return ""
	}
	return r.usrv.Addr()
}

func (r *replica) stop() {
	if r.ticking {
		close(r.stopTick)
		<-r.tickDone
	}
	if r.usrv != nil {
		_ = r.usrv.Close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.jr != nil {
		_ = r.jr.Close()
	}
	for _, f := range []*os.File{r.logf, r.evf} {
		if f != nil {
			_ = f.Close()
		}
	}
	removeScratch(r.dir)
}

// burstStart opens the epoch's root span: from the moment its burst starts
// to leave the generator until its report is written.
func (r *replica) burstStart(epoch int) {
	if r.tr == nil {
		return
	}
	id := r.tr.begin("epoch", -1, epoch)
	r.mu.Lock()
	r.roots[epoch] = id
	r.mu.Unlock()
}

// rootLocked returns the epoch's root span, or -1. Caller holds r.mu.
func (r *replica) rootLocked(epoch int) int {
	if id, ok := r.roots[epoch]; ok {
		return id
	}
	return -1
}

func epochOf(m transport.Message) int {
	switch d := m.(type) {
	case transport.AlignedDigest:
		return d.Epoch
	case transport.UnalignedDigest:
		return d.Epoch
	}
	return 0
}

// handle is cmd/dcsd's ingest handler: journal first, then the in-memory
// window, then a log line per digest. The time between two calls for the same
// epoch is the server's own: reading the socket and decoding the next frame.
func (r *replica) handle(m transport.Message, from net.Addr) {
	epoch, root := epochOf(m), -1
	if r.tr != nil {
		now := time.Now()
		r.mu.Lock()
		root = r.rootLocked(epoch)
		prev, seen := r.lastEnd[epoch]
		r.mu.Unlock()
		switch {
		case seen:
			r.tr.add("transport.recv_decode", prev, now, root, epoch)
		case root >= 0:
			r.tr.add("transport.first_arrival", r.tr.startOf(root), now, root, epoch)
		}
	}
	h := r.tr.begin("dcsd.handler", root, epoch)

	a := r.tr.begin("journal.append", h, epoch)
	if err := r.jr.Append(m); err != nil {
		r.logr.Printf("journal append: %v", err)
	}
	r.tr.end(a)

	switch d := m.(type) {
	case transport.AlignedDigest:
		i := r.tr.begin("center.ingest_aligned", h, epoch)
		r.c.Ingest(m)
		r.tr.end(i)
		l := r.tr.begin("dcsd.log", h, epoch)
		r.logr.Printf("aligned digest from router %d (%s), epoch %d, %d bits", d.RouterID, from, d.Epoch, d.Bitmap.Len())
		r.tr.end(l)
	case transport.UnalignedDigest:
		i := r.tr.begin("center.ingest_unaligned", h, epoch)
		r.c.Ingest(m)
		r.tr.end(i)
		l := r.tr.begin("dcsd.log", h, epoch)
		r.logr.Printf("unaligned digest from router %d (%s), epoch %d", d.Digest.RouterID, from, d.Epoch)
		r.tr.end(l)
	}
	r.tr.end(h)
	if r.tr != nil {
		r.mu.Lock()
		r.lastEnd[epoch] = time.Now()
		r.mu.Unlock()
	}
}

// report writes the human-oriented lines cmd/dcsd logs for every window.
func (r *replica) report(rep center.WindowReport) {
	if rep.Degraded && len(rep.MissingRouters) > 0 {
		r.logr.Printf("epoch %d DEGRADED: analyzed below quorum, missing routers %v", rep.Epoch, rep.MissingRouters)
	}
	if a := rep.Aligned; a != nil {
		if a.Detection.Found {
			r.logr.Printf("epoch %d ALIGNED PATTERN: %d routers share %d common packets (core %d): routers %v",
				rep.Epoch, len(a.RouterIDs), len(a.Detection.Cols), len(a.Detection.CoreCols), a.RouterIDs)
		} else {
			r.logr.Printf("epoch %d aligned: no pattern across %d routers", rep.Epoch, a.Routers)
		}
	}
	if u := rep.Unaligned; u != nil {
		if u.ER.PatternDetected {
			r.logr.Printf("epoch %d UNALIGNED PATTERN: largest component %d >= %d over %d vertices; %d vertices at routers %v implicated",
				rep.Epoch, u.ER.LargestComponent, u.ER.Threshold, u.Vertices, len(u.PatternVertices), u.Routers)
		} else {
			r.logr.Printf("epoch %d unaligned: no pattern (largest component %d < %d over %d vertices)",
				rep.Epoch, u.ER.LargestComponent, u.ER.Threshold, u.Vertices)
		}
	}
}

// emit encodes the report as cmd/dcsd's event log does, running quantiles
// included.
func (r *replica) emit(rep center.WindowReport, wall time.Duration) error {
	st := r.c.Stats()
	ev := replicaEvent{
		Epoch: rep.Epoch, Routers: rep.Routers, Degraded: rep.Degraded, MissingRouters: rep.MissingRouters,
		Shed: rep.Shed, ShedDigests: rep.ShedDigests, RejectedDigests: rep.RejectedDigests,
		SpanStart: rep.SpanStart, SpanEpochs: rep.SpanEpochs, RetiredEpochs: rep.RetiredEpochs,
		WallMS:               float64(wall.Microseconds()) / 1e3,
		IngestToAnalyzeP50MS: st.IngestToAnalyzeSeconds.Quantile(0.5) * 1e3,
		IngestToAnalyzeP99MS: st.IngestToAnalyzeSeconds.Quantile(0.99) * 1e3,
		FinalizeP50MS:        st.FinalizeSeconds.Quantile(0.5) * 1e3,
		FinalizeP99MS:        st.FinalizeSeconds.Quantile(0.99) * 1e3,
	}
	if a := rep.Aligned; a != nil {
		ev.Aligned = &replicaAligned{a.Detection.Found, a.RouterIDs, len(a.Detection.Cols), len(a.Detection.CoreCols)}
	}
	if u := rep.Unaligned; u != nil {
		ev.Unaligned = &replicaUnaligned{u.ER.PatternDetected, u.ER.LargestComponent, u.ER.Threshold, u.Vertices, u.Routers}
	}
	return r.enc.Encode(ev)
}

// finish is cmd/dcsd's: log the report, write its event, then tell the
// journal which epochs it may forget. began and ended bracket the analysis
// that produced the report.
func (r *replica) finish(rep center.WindowReport, began, ended time.Time) {
	e, root := rep.Epoch, -1
	if r.tr != nil {
		r.mu.Lock()
		root = r.rootLocked(e)
		last, seen := r.lastEnd[e]
		r.mu.Unlock()
		if seen {
			r.tr.add("dcsd.tick_wait", last, began, root, e)
		}
		r.tr.add("center.analyze", began, ended, root, e)
	}
	l := r.tr.begin("dcsd.report_log", root, e)
	r.report(rep)
	r.tr.end(l)
	em := r.tr.begin("dcsd.events_emit", root, e)
	if err := r.emit(rep, ended.Sub(began)); err != nil {
		r.logr.Printf("events: epoch %d: %v", e, err)
	}
	r.tr.end(em)
	if root >= 0 {
		r.tr.end(root)
	}
	r.events <- stamped{ev: event{Epoch: e}, at: time.Now()}

	rt := r.tr.begin("journal.retire", -1, e)
	retired := rep.RetiredEpochs
	if len(retired) == 0 {
		retired = []int{e}
	}
	for _, re := range retired {
		if err := r.jr.EpochAnalyzed(re); err != nil {
			r.logr.Printf("journal: marking epoch %d analyzed: %v", re, err)
		}
	}
	r.tr.end(rt)
}

func (r *replica) analyzeEpoch(epoch int) {
	began := time.Now()
	rep, err := r.c.Analyze(epoch)
	if err != nil {
		r.logr.Printf("epoch %d analysis: %v", epoch, err)
		return
	}
	r.finish(rep, began, time.Now())
}

func (r *replica) drainComplete() {
	for {
		began := time.Now()
		rep, err := r.c.AnalyzeLatestComplete()
		if err != nil {
			if !errors.Is(err, center.ErrNoCompleteEpoch) {
				r.logr.Printf("analysis: %v", err)
			}
			return
		}
		r.finish(rep, began, time.Now())
	}
}

// tickLoop is cmd/dcsd's window tick: superseded epochs close first, then any
// epoch that sat out a full tick unchanged, the quorum gate permitting.
func (r *replica) tickLoop(window time.Duration) {
	defer close(r.tickDone)
	ticker := time.NewTicker(window)
	defer ticker.Stop()
	prev := map[int]int{}
	heldTicks := map[int]int{}
	for {
		select {
		case <-ticker.C:
			for _, rep := range r.c.TakeShedReports() {
				now := time.Now()
				r.finish(rep, now, now)
			}
			r.drainComplete()
			counts := r.c.EpochDigests()
			for e, n := range counts {
				if prev[e] != n {
					continue
				}
				if q := r.c.Quorum(e); q.Hold {
					heldTicks[e]++
					if heldTicks[e] <= maxWait {
						r.logr.Printf("epoch %d held below quorum (%d reported, missing routers %v), tick %d/%d",
							e, q.Reported, q.Missing, heldTicks[e], maxWait)
						continue
					}
					r.logr.Printf("epoch %d exhausted quorum wait; analyzing degraded", e)
				}
				r.analyzeEpoch(e)
				delete(counts, e)
				delete(heldTicks, e)
			}
			prev = counts
		case <-r.stopTick:
			return
		}
	}
}

// replicaPass is one lockstep run through the replica.
type replicaPass struct {
	spans      []span
	firstTimed int           // first epoch after the warm-up
	digests    int           // digests in the timed epochs
	wall       time.Duration // first timed send to last timed report
	cpu        time.Duration // processor time over the same interval, the generator's sends left out
}

// runReplica drives warm-up plus epochs lockstep epochs through a fresh
// replica, with spans when traced.
func runReplica(w workload, p *pools, root string, epochs int, traced bool) (*replicaPass, error) {
	// The sender's processor time is taken off the replica's below, and is
	// read per thread.
	runtime.LockOSThread()
	// As many processors as the daemon has: the Go runtime's cost of a
	// blocking call (the journal's fsync) depends on it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := startReplica(w, root, tr)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	dr, err := newDriver(w, p, 0, r.srv.Addr(), r.udpAddr(), r.events)
	if err != nil {
		return nil, err
	}
	defer dr.snd.Close()
	dr.burstStart = r.burstStart
	dr.tr = tr
	if _, _, err := dr.lockstep(0, 0, warmEpochs); err != nil {
		return nil, fmt.Errorf("replica warm-up: %w", err)
	}
	pass := &replicaPass{firstTimed: dr.next}
	sendBefore := dr.sendCPU
	cpu0 := selfCPU()
	start := time.Now()
	first, last, err := dr.lockstep(0, 0, epochs)
	if err != nil {
		return nil, fmt.Errorf("replica lockstep: %w", err)
	}
	pass.wall = time.Since(start)
	pass.cpu = selfCPU() - cpu0 - (dr.sendCPU - sendBefore)
	pass.digests = (last - first + 1) * w.burst()
	pass.spans = tr.snapshot()
	return pass, nil
}
