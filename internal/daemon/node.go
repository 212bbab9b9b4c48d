// Package daemon is the one assembly of the paper's analysis-center role
// (Figure 2): digests in, per-epoch correlation, verdict out. A Node owns
// the ingest handler, the epoch-close policy, the finish step and the
// shutdown drain; Run wraps one (or a shard coordinator) in listeners,
// registry, HTTP endpoints, event log and the tick loop. dcsd, the shard
// Cluster and examples/distributed all instantiate these two. DESIGN.md §14.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
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
// goroutine that runs the node's clock.
type Node struct {
	Center  *center.Center
	Journal *journal.Journal // attached by OpenJournal; nil without one

	log     *log.Logger
	maxWait int          // quiescent ticks a below-quorum epoch may be held
	sliding bool         // reports leave their own epoch buffered for the spans ahead
	events  *eventLog    // nil = no event log
	push    shard.Sender // nil = reports stay local
	shard   int          // this node's index in the envelopes it pushes

	// jrDegraded latches the journal's degraded state so the transition is
	// logged once, not per digest — a full disk under a digest flood must
	// not also flood the log.
	jrDegraded atomic.Bool

	prev map[int]int // Tick: per-epoch digest counts at the start of the previous tick
	held map[int]int // Tick: quiescent ticks each buffered epoch has been held below quorum

	reps []center.WindowReport // what the running Tick, Wake or Drain has finished
	err  error                 // and the first fault it met
}

// NewNode builds a node around a fresh center. Everything the node has to
// say — verdicts, holds, journal recovery and faults — goes to logger; nil
// discards it.
func NewNode(cfg center.Config, logger *log.Logger) *Node {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Node{Center: center.New(cfg), log: logger, maxWait: cfg.MaxWait, sliding: cfg.WindowSlide > 1, held: map[int]int{}}
}

// OpenJournal attaches the crash journal in dir and replays every
// un-analyzed epoch it holds into the center, after telling the center which
// sliding spans the previous life already reported: their epochs come back as
// context for the spans ahead, not to be reported again. Call it before
// serving: replayed digests must not interleave with live ones from
// collectors that reconnect immediately.
func (n *Node) OpenJournal(dir string) error {
	jr, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	n.Journal = jr
	if e, ok := jr.SpanWatermark(); ok {
		n.Center.RestoreSpanWatermark(e)
	}
	if err := jr.Replay(func(m transport.Message) error {
		n.Center.Ingest(m)
		return nil
	}); err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	if s := jr.Stats(); s.FramesReplayed > 0 || s.TailsTruncated > 0 {
		n.log.Printf("journal: recovered %d digests (%d already-analyzed skipped, %d torn tails truncated) from %s",
			s.FramesReplayed, s.FramesSkipped, s.TailsTruncated, dir)
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
			n.Journal.Stats().UnjournaledFrames)
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
// expected digest has been stored: the sequence a tick runs — shed tombstones,
// then epochs superseded by a newer one — and then, oldest first, the
// complete epochs, which a tick would have closed one to two windows later.
// Everything short of complete is left to Tick. Returns as Tick does.
func (n *Node) Wake() ([]center.WindowReport, error) {
	n.drainShed()
	n.drainComplete()
	for _, e := range n.Center.CompleteEpochs() {
		n.analyze(e, center.CloseComplete)
	}
	return n.take()
}

// Tick runs the epoch-close policy once per window tick: shed tombstones
// first, then epochs superseded by a newer one, then, oldest first, every
// epoch that sat out a full tick with no new digests. The quorum gate can
// veto that quiescence close for up to MaxWait ticks — a fleet that stopped
// advancing epochs would otherwise never satisfy the gate's own epoch-based
// bound — after which the epoch closes Degraded.
//
// Quiescence compares counts taken at the start of consecutive ticks, before
// the drains: a count taken after them lands as late in its tick as the
// analyses ran long, and a burst still in flight then looks idle to the next
// tick. Tick returns the reports it finished and the first fault it logged.
//
// It opens with the barrier, so the digests of an epoch nothing closes — held
// below quorum, short of a digest — are exposed to an OS crash for one window.
func (n *Node) Tick() ([]center.WindowReport, error) {
	n.sync()
	start := n.Center.EpochDigests()
	n.drainShed()
	n.drainComplete()
	now := n.Center.EpochDigests()
	epochs := make([]int, 0, len(now))
	for e := range now {
		epochs = append(epochs, e)
	}
	// Ascending: under a sliding window, closing a newer span first would
	// foreclose an older one that comes out of its hold on the same tick.
	sort.Ints(epochs)
	for _, e := range epochs {
		if n.prev[e] != start[e] || start[e] != now[e] {
			continue
		}
		if q := n.Center.Quorum(e); q.Hold {
			n.held[e]++
			if n.held[e] <= n.maxWait {
				n.log.Printf("epoch %d held below quorum (%d reported, missing routers %v), tick %d/%d",
					e, q.Reported, q.Missing, n.held[e], n.maxWait)
				continue
			}
			n.log.Printf("epoch %d exhausted quorum wait; analyzing degraded", e)
		}
		n.analyze(e, center.CloseQuiescent)
		delete(n.held, e)
	}
	// An epoch held once and then closed by a drain, shed or evicted never
	// reaches the delete above; keep only what is still buffered.
	for e := range n.held {
		if _, buffered := now[e]; !buffered {
			delete(n.held, e)
		}
	}
	n.prev = start
	return n.take()
}

// Drain is the shutdown drain, every report the center still owes: shed
// tombstones, the superseded epochs, then whatever remains buffered, oldest
// first. Returns as Tick does.
func (n *Node) Drain() ([]center.WindowReport, error) {
	n.drainShed()
	n.drainComplete()
	for _, e := range n.Center.Epochs() {
		n.analyze(e, center.CloseDrain)
	}
	n.drainShed()
	return n.take()
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
// budget, so their journal frames are purged rather than replayed into a
// window that no longer exists.
func (n *Node) drainShed() {
	for _, rep := range n.Center.TakeShedReports() {
		n.finish(rep, 0)
	}
}

// drainComplete analyzes every epoch already superseded by a newer one and
// not held open by the quorum gate.
func (n *Node) drainComplete() {
	for {
		start := time.Now()
		rep, err := n.Center.AnalyzeLatestComplete()
		if err != nil {
			if !errors.Is(err, center.ErrNoCompleteEpoch) {
				n.fault("analysis: %w", err)
			}
			return
		}
		n.closed(rep, center.CloseSuperseded, time.Since(start))
	}
}

func (n *Node) analyze(epoch int, cause center.CloseCause) {
	start := time.Now()
	rep, err := n.Center.Analyze(epoch)
	switch {
	case errors.Is(err, center.ErrNotOwned), errors.Is(err, center.ErrNoWindow):
		// Not this node's to report: a context epoch whose span belongs to
		// another shard, or a span a newer sliding span already foreclosed.
	case err != nil:
		n.fault("epoch %d analysis: %w", epoch, err)
	default:
		n.closed(rep, cause, time.Since(start))
	}
}

// closed finishes the report of an epoch the center analyzed, and counts the
// close under the policy rule that asked for it.
func (n *Node) closed(rep center.WindowReport, cause center.CloseCause, wall time.Duration) {
	n.Center.Stats().Closed[cause].Inc()
	n.finish(rep, wall)
}

// finish makes every digest the report counted durable — the analysis has its
// snapshot, so the barrier covers at least those — then delivers the report to
// every sink — the log, the event log, the coordinator — then records a
// sliding span as reported, and only then lets the journal forget the epochs
// the report retired: a crash anywhere in between, of the process or of the
// machine, can repeat this report on restart, identically, but never re-report
// it from fewer digests or from the context the retirement left behind.
func (n *Node) finish(rep center.WindowReport, wall time.Duration) {
	n.sync()
	logReport(n.log, rep)
	if err := n.events.emit(rep, wall); err != nil {
		n.fault("events: epoch %d: %w", rep.Epoch, err)
	}
	if n.push != nil {
		n.pushReport(rep)
	}
	if n.Journal != nil {
		if n.sliding && !rep.Shed {
			if err := n.Journal.SpanReported(rep.Epoch); err != nil {
				n.fault("journal: marking span %d reported: %w", rep.Epoch, err)
			}
		}
		// Only retired epochs may forget their journal frames: under a
		// sliding window a report's own epoch stays buffered for the next
		// overlapping spans, and purging it would lose those digests across
		// a crash.
		for _, e := range rep.RetiredEpochs {
			if err := n.Journal.EpochAnalyzed(e); err != nil {
				n.fault("journal: marking epoch %d analyzed: %w", e, err)
			}
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
		l.Printf("epoch %d DEGRADED: %d digests refused at admission under the memory budget", rep.Epoch, rep.RejectedDigests)
	}
	if rep.Degraded && len(rep.MissingRouters) > 0 {
		l.Printf("epoch %d DEGRADED: analyzed below quorum, missing routers %v", rep.Epoch, rep.MissingRouters)
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
