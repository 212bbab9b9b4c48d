package daemon

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

// ClusterConfig configures an in-process shard cluster: N shard Nodes
// behind real TCP transports plus a coordinator wired to all of them. Tests
// and the dcsbench shards experiment use it to exercise the whole
// scatter/gather path — framing, JSON envelopes, per-shard journals —
// without N OS processes.
type ClusterConfig struct {
	// Shards is the shard count; values below 1 behave as 1.
	Shards int
	// Center is the per-shard center configuration. The cluster installs
	// each shard's partition predicates and gives every shard a private
	// Stats; everything else applies verbatim to all shards, so a 1-shard
	// cluster runs exactly the single-center config.
	Center center.Config
	// JournalDir, when non-empty, gives each shard a crash journal in
	// <JournalDir>/shard-<i>, replayed into the shard's center before the
	// cluster starts serving.
	JournalDir string
}

// clusterShard is one shard's in-process incarnation: a Node behind a TCP
// server, with the coordinator's scatter client on the other end.
type clusterShard struct {
	node    *Node
	srv     *transport.Server
	push    *transport.Client // the node's report uplink
	scatter *transport.Client // the coordinator's sender to this shard
	// processed counts digests the node's handler has fully filed — the
	// exact quiescence ledger Quiesce compares against the coordinator's
	// routed counts.
	processed atomic.Int64
	alive     atomic.Bool // cleared by KillShard
}

// Cluster is a running in-process shard deployment.
type Cluster struct {
	co     *shard.Coordinator
	sink   *transport.Server // coordinator's report listener
	shards []*clusterShard
}

// NewCluster builds and starts a cluster: per-shard Nodes and TCP servers,
// a coordinator report sink, and a coordinator holding one TCP client per
// shard. Call Close when done.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	part := shard.Partition{Shards: cfg.Shards, Slide: cfg.Center.WindowSlide}
	cl := &Cluster{}

	// The report sink must exist before the coordinator, and the
	// coordinator before the shards can push to it; the sink handler only
	// touches co through the pointer, which is set before Serve can deliver
	// (the shards push nothing until AnalyzeAll).
	var co *shard.Coordinator
	sink, err := transport.Serve("127.0.0.1:0", func(m transport.Message, _ net.Addr) {
		if r, ok := m.(transport.Report); ok {
			co.Gather(r)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: starting report sink: %w", err)
	}
	cl.sink = sink

	senders := make([]shard.Sender, cfg.Shards)
	fail := func(err error) (*Cluster, error) {
		closeErr := cl.Close()
		_ = closeErr // the constructor error is the one worth reporting
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		ccfg, dir := shardConfig(cfg.Center, part, i, cfg.JournalDir)
		sh := &clusterShard{node: NewNode(ccfg, nil)}
		sh.alive.Store(true)
		cl.shards = append(cl.shards, sh)
		if dir != "" {
			if err := sh.node.OpenJournal(dir); err != nil {
				return fail(fmt.Errorf("shard %d: %w", i, err))
			}
		}
		sh.srv, err = transport.Serve("127.0.0.1:0", func(m transport.Message, from net.Addr) {
			sh.node.Handle(m, from)
			sh.processed.Add(1)
		})
		if err != nil {
			return fail(fmt.Errorf("shard %d: starting server: %w", i, err))
		}
		if sh.push, err = transport.Dial(sink.Addr(), 5*time.Second); err != nil {
			return fail(fmt.Errorf("shard %d: dialing report sink: %w", i, err))
		}
		sh.node.push, sh.node.shard = sh.push, i
		if sh.scatter, err = transport.Dial(sh.srv.Addr(), 5*time.Second); err != nil {
			return fail(fmt.Errorf("shard %d: dialing shard server: %w", i, err))
		}
		senders[i] = sh.scatter
	}
	co = shard.NewCoordinator(part, senders)
	cl.co = co
	return cl, nil
}

// Coordinator exposes the cluster's coordinator (health ledger, merge,
// metrics registration).
func (cl *Cluster) Coordinator() *shard.Coordinator { return cl.co }

// Route scatters one digest through the coordinator, exactly as the
// coordinator-mode dcsd handler would.
func (cl *Cluster) Route(m transport.Message) { cl.co.Route(m) }

// KillShard simulates a shard crash: its server and report connection close
// mid-flight (no clean drain, journal left as the crash left it) and the
// coordinator is told the shard is dead. Idempotent.
func (cl *Cluster) KillShard(i int) {
	sh := cl.shards[i]
	if !sh.alive.CompareAndSwap(true, false) {
		return
	}
	// Crash semantics: connections drop, nothing flushes. Close errors are
	// the expected debris of tearing down live sockets — observed, then
	// deliberately not propagated.
	if err := sh.srv.Close(); err != nil {
		_ = err // simulated crash; the socket dying messily is the point
	}
	if err := sh.push.Close(); err != nil {
		_ = err // simulated crash; the socket dying messily is the point
	}
	cl.co.MarkDead(i)
}

// Quiesce waits until every live shard has processed everything the
// coordinator managed to send it (routed minus send errors) — exact on
// loopback TCP, no sleeps in the success path.
func (cl *Cluster) Quiesce(timeout time.Duration) error {
	return poll(timeout, "quiesce timeout: shards still processing routed digests", func() bool {
		healths := cl.co.Healths()
		for i, sh := range cl.shards {
			if h := healths[i]; sh.alive.Load() && sh.processed.Load() < h.Routed-h.SendErrors {
				return false
			}
		}
		return true
	})
}

// poll waits for done to hold, checking every 2 ms.
func poll(timeout time.Duration, what string, done func() bool) error {
	deadline := time.Now().Add(timeout)
	for !done() {
		if time.Now().After(deadline) {
			return errors.New("daemon: " + what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// gathered counts every report frame the coordinator has filed, good or bad.
func (cl *Cluster) gathered() int64 {
	n := cl.co.Stats().BadReports.Load()
	for _, h := range cl.co.Healths() {
		n += h.Reports
	}
	return n
}

// AnalyzeAll drains every live shard in parallel — each Node pushes its
// reports to the coordinator over the real report wire — waits until the
// coordinator has gathered everything pushed, expires whatever nothing will
// ever report (ExpireStale(0): evicted epochs, dead shards' spans), and
// returns the merged verdict stream, epoch-ascending.
func (cl *Cluster) AnalyzeAll(timeout time.Duration) ([]shard.MergedReport, error) {
	baseline := cl.gathered()
	var pushed atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(cl.shards))
	for i, sh := range cl.shards {
		if !sh.alive.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, sh *clusterShard) {
			defer wg.Done()
			reps, err := sh.node.Drain()
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
			pushed.Add(int64(len(reps)))
		}(i, sh)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := poll(timeout, "gather timeout: coordinator missing pushed reports", func() bool {
		return cl.gathered() >= baseline+pushed.Load()
	}); err != nil {
		return nil, err
	}
	cl.co.ExpireStale(0)
	return cl.co.TakeMerged(), nil
}

// Close tears the cluster down: shard servers, report connections,
// journals, the coordinator's shard clients, and the report sink. Teardown
// continues past an error; every one is returned.
func (cl *Cluster) Close() error {
	var errs []error
	for _, sh := range cl.shards {
		if sh.alive.Load() {
			if sh.srv != nil {
				errs = append(errs, sh.srv.Close())
			}
			if sh.push != nil {
				errs = append(errs, sh.push.Close())
			}
		}
		errs = append(errs, sh.node.Close())
		if sh.scatter != nil {
			errs = append(errs, sh.scatter.Close())
		}
	}
	return errors.Join(append(errs, cl.sink.Close())...)
}
