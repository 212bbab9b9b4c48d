// Package daemon is the one assembly of the paper's analysis-center role
// (Figure 2): digests in, per-epoch correlation, verdict out. A Node owns
// the ingest handler, the close policy's triggers (the policy itself is the
// center's CloseNext), the finish step and the shutdown drain; Run wraps one (or a shard coordinator) in listeners,
// registry, HTTP endpoints, event log and the tick loop. dcsd, the shard
// Cluster and examples/distributed all instantiate these two. DESIGN.md §14.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync/atomic"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/journal"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

// Node is one analysis center with its journal and report sinks. Handle and
// HandleBatch are safe for concurrent use (the transport servers call them
// from their own goroutines); Tick, Wake and Drain belong to the one
// goroutine that runs the node's clock. They are the close policy's triggers
// and nothing more: each is the same loop over Center.CloseNext, which holds
// the whole policy.
type Node struct {
	Center  *center.Center
	Journal *journal.Journal // attached by OpenJournal; nil without one

	log    *log.Logger
	events *eventLog    // nil = no event log
	push   shard.Sender // nil = reports stay local
	shard  int          // this node's index in the envelopes it pushes

	// jrDegraded latches the journal's degraded state so the transition is
	// logged once, not per digest — a full disk under a digest flood must
	// not also flood the log.
	jrDegraded atomic.Bool

	reps []center.WindowReport // what the running Tick, Wake or Drain has finished
	err  error                 // and the first fault it met
}

// NewNode builds a node around a fresh center, and panics, as center.New
// does, on a configuration center.Config.Validate refuses. Everything the node
// has to say — verdicts, holds, journal recovery and faults — goes to logger;
// nil discards it.
func NewNode(cfg center.Config, logger *log.Logger) *Node {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Node{Center: center.New(cfg), log: logger}
}

// OpenJournal attaches the crash journal in dir and replays every
// un-retired epoch it holds into the center, after telling the center what
// the previous life retired: those epochs stay closed, and the epochs of
// spans it already reported come back as context for the spans ahead, not to
// be reported again. Call it before
// serving: replayed digests must not interleave with live ones from
// collectors that reconnect immediately.
func (n *Node) OpenJournal(dir string) error {
	jr, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	n.Journal = jr
	n.Center.RestoreRetired(jr.Retired())
	if err := jr.Replay(func(m transport.Message) error {
		n.Center.Ingest(m)
		return nil
	}); err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	if s := jr.Stats(); s.FramesReplayed.Load() > 0 || s.TailsTruncated.Load() > 0 {
		n.log.Printf("journal: recovered %d digests (%d already-analyzed skipped, %d torn tails truncated) from %s",
			s.FramesReplayed.Load(), s.FramesSkipped.Load(), s.TailsTruncated.Load(), dir)
	}
	return nil
}

// Close closes the journal, if any.
func (n *Node) Close() error {
	if n.Journal == nil {
		return nil
	}
	return n.Journal.Close()
}

// Handle is the TCP ingest handler: HandleBatch of one frame.
func (n *Node) Handle(m transport.Message, from net.Addr) {
	n.HandleBatch([]transport.Message{m}, from)
}

// HandleBatch is the ingest handler, called once per UDP datagram: journal
// first — one write for the batch, made durable by the next barrier — then the
// in-memory window, under one acquisition of the center's lock. It logs
// nothing per digest; /metrics, -stats and the events carry the counts.
func (n *Node) HandleBatch(ms []transport.Message, _ net.Addr) {
	if n.Journal != nil {
		// On a fault the digests still reach the in-memory window; only their
		// crash durability is lost.
		n.journaled("append", n.Journal.Append(ms...))
	}
	n.Center.Ingest(ms...)
}

// journaled files the outcome of a journal append or barrier under the
// degraded latch.
func (n *Node) journaled(op string, err error) {
	switch {
	case errors.Is(err, journal.ErrDegraded):
		if n.jrDegraded.CompareAndSwap(false, true) {
			n.log.Printf("journal DEGRADED: %v; ingest continues without crash durability", err)
		}
	case err != nil:
		n.log.Printf("journal %s: %v", op, err)
	case n.jrDegraded.CompareAndSwap(true, false):
		n.log.Printf("journal re-armed: appends durable again (%d digests unjournaled while degraded)",
			n.Journal.Stats().UnjournaledFrames.Load())
	}
}

// sync is the durability barrier (DESIGN.md "Crash safety"): every digest a
// handler has returned for is durable, or counted unjournaled, when it returns.
func (n *Node) sync() {
	if n.Journal != nil {
		n.journaled("sync", n.Journal.Sync())
	}
}

// Wake runs when the center signals (Center.Completed) that some epoch's last
// expected digest has been stored: shed tombstones, then, oldest first, the
// spans CloseNext lets a completion close — superseded, or complete — which a
// tick would have closed one to two windows later. Everything short of
// complete is left to Tick. Returns as Tick does.
func (n *Node) Wake() ([]center.WindowReport, error) {
	n.closeAll(center.CloseComplete)
	return n.take()
}

// Tick runs the close policy once per window tick: it advances the center's
// quiescence clock before any close — so a long analysis in one tick cannot
// shorten the window the next one judges — forwards shed tombstones, then closes, oldest first, the
// spans CloseNext lets a tick close — superseded, or quiescent for a full tick
// with the quorum gate's hold, if any, out of its MaxWait ticks — and returns
// the reports it finished and the first fault it logged.
//
// It opens with the barrier, so the digests of an epoch nothing closes — held
// below quorum, short of a digest — are exposed to an OS crash for one window.
func (n *Node) Tick() ([]center.WindowReport, error) {
	n.sync()
	n.Center.Tick()
	n.closeAll(center.CloseQuiescent)
	return n.take()
}

// Drain is the shutdown drain, every report the center still owes: shed
// tombstones, then every open span, oldest first. A sink failing on one
// report is a fault, logged; the drain goes on past it to the next span and
// returns the first fault with the reports, as Tick does.
func (n *Node) Drain() ([]center.WindowReport, error) {
	n.closeAll(center.CloseDrain)
	return n.take()
}

// closeAll finishes the spans CloseNext closes under trigger until it refuses
// (a hold is logged); a center's analysis cannot fail. Shed before watermark:
// a tombstone is the only report of a shed epoch, and finish hands the journal
// a span's start as its watermark. So the tombstones are taken after each
// CloseNext, when no epoch at or below the start is left to shed, and finished
// before the span: no crash finds the watermark durable over an unsent one.
func (n *Node) closeAll(trigger center.CloseCause) {
	for {
		start := time.Now()
		rep, _, err := n.Center.CloseNext(trigger)
		wall := time.Since(start)
		n.drainShed()
		if err != nil {
			if hold := (*center.HeldError)(nil); errors.As(err, &hold) {
				n.log.Print(hold)
			}
			return
		}
		n.finish(rep, wall)
	}
}

func (n *Node) take() ([]center.WindowReport, error) {
	reps, err := n.reps, n.err
	n.reps, n.err = nil, nil
	return reps, err
}

func (n *Node) fault(format string, args ...any) {
	err := fmt.Errorf(format, args...)
	n.log.Print(err)
	if n.err == nil {
		n.err = err
	}
}

// drainShed forwards the tombstone reports of epochs shed under the memory
// budget and retires the epochs ring eviction released in the journal, so the
// frames of both are purged rather than replayed into a window that no longer
// exists. An evicted epoch gets no report: it stays a counted drop.
func (n *Node) drainShed() {
	for _, rep := range n.Center.TakeShedReports() {
		n.finish(rep, 0)
	}
	evicted := n.Center.TakeEvictedEpochs()
	if n.Journal == nil {
		return
	}
	for _, e := range evicted {
		if err := n.Journal.EpochAnalyzed(e); err != nil {
			n.fault("journal: marking evicted epoch %d analyzed: %w", e, err)
		}
	}
}

// finish makes every digest the report counted durable — the analysis has its
// snapshot, so the barrier covers at least those — then delivers the report to
// every sink — the log, the event log, the coordinator — and only then retires
// what it covers in the journal in one durable step (a shed epoch alone: it can
// sit above an open span). A crash anywhere in between, of the process or of
// the machine, can repeat this report on restart, identically, but never
// re-report it from fewer digests or from the context the retirement left.
func (n *Node) finish(rep center.WindowReport, wall time.Duration) {
	n.sync()
	logReport(n.log, rep)
	if err := n.events.emit(rep, wall); err != nil {
		n.fault("events: epoch %d: %w", rep.Epoch, err)
	}
	if n.push != nil {
		n.pushReport(rep)
	}
	switch {
	case n.Journal == nil:
	case rep.Shed:
		if err := n.Journal.EpochAnalyzed(rep.Epoch); err != nil {
			n.fault("journal: marking shed epoch %d analyzed: %w", rep.Epoch, err)
		}
	default:
		if err := n.Journal.Reported(rep.SpanStart, rep.Epoch); err != nil {
			n.fault("journal: marking span %d reported: %w", rep.Epoch, err)
		}
	}
	n.reps = append(n.reps, rep)
}

// pushReport is the shard's report uplink: the report plus the shard's own
// health facts in one envelope.
func (n *Node) pushReport(rep center.WindowReport) {
	frame, err := shard.EncodeReport(shard.Envelope{
		Shard:           n.shard,
		JournalDegraded: n.Journal != nil && n.Journal.Degraded(),
		HeldEpochs:      n.Center.HeldEpochs(),
		Report:          rep,
	})
	if err == nil {
		// A reconnecting sender buffers across outages; an error from it
		// means the buffer is gone too, and the coordinator's expiry will
		// degrade the span.
		err = n.push.Send(frame)
	}
	if err != nil {
		n.fault("shard push: epoch %d: %w", rep.Epoch, err)
	}
}

// logReport writes the human-oriented lines for one window.
func logReport(l *log.Logger, rep center.WindowReport) {
	if rep.Shed {
		l.Printf("epoch %d SHED: %d digests from %d routers dropped whole under the memory budget; no analysis ran",
			rep.Epoch, rep.ShedDigests, rep.Routers)
		return
	}
	if rep.RejectedDigests > 0 {
		l.Printf("epoch %d DEGRADED: %d digests refused at admission (memory budget or digest shape)", rep.Epoch, rep.RejectedDigests)
	}
	if rep.Degraded && len(rep.MissingRouters) > 0 {
		l.Printf("epoch %d DEGRADED: analyzed below quorum, missing routers %v", rep.Epoch, rep.MissingRouters)
	}
	if len(rep.ExcludedRouters) > 0 {
		l.Printf("epoch %d DEGRADED: digests of another shape left out of the analysis, routers %v", rep.Epoch, rep.ExcludedRouters)
	}
	if a := rep.Aligned; a != nil {
		if a.Detection.Found {
			l.Printf("epoch %d ALIGNED PATTERN: %d routers share %d common packets (core %d): routers %v",
				rep.Epoch, len(a.RouterIDs), len(a.Detection.Cols), len(a.Detection.CoreCols), a.RouterIDs)
		} else {
			l.Printf("epoch %d aligned: no pattern across %d routers", rep.Epoch, a.Routers)
		}
	}
	if u := rep.Unaligned; u != nil {
		if u.ER.PatternDetected {
			l.Printf("epoch %d UNALIGNED PATTERN: largest component %d >= %d over %d vertices; %d vertices at routers %v implicated",
				rep.Epoch, u.ER.LargestComponent, u.ER.Threshold, u.Vertices, len(u.PatternVertices), u.Routers)
		} else {
			l.Printf("epoch %d unaligned: no pattern (largest component %d < %d over %d vertices)",
				rep.Epoch, u.ER.LargestComponent, u.ER.Threshold, u.Vertices)
		}
	}
	if rep.Aligned == nil && rep.Unaligned == nil {
		l.Printf("epoch %d: fewer than two routers reported, nothing to correlate", rep.Epoch)
	}
}
