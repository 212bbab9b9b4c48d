package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/metrics"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

// Config is dcsd's flag set, one field per flag, plus the tick seam.
type Config struct {
	Listen, UDP         string        // -listen, -udp (empty = no UDP listener)
	Window, ConnTimeout time.Duration // -window, -conn-timeout
	// Center carries -max-epochs, -subset, -er-threshold, -beta, -d,
	// -workers, -min-routers, -max-wait, -slide, -mem-budget and
	// -shed-policy; the partition predicates are derived here.
	Center       center.Config
	Once, Stats  bool    // -once, -stats
	Journal      string  // -journal (empty = no journal)
	HTTP, Events string  // -http, -events (empty = off; events "-" = stdout)
	RateLimit    float64 // -rate-limit (0 = no admission gate)
	Shards       int     // -shards
	ShardOf      int     // -shard-of (negative = un-sharded)
	// Coordinator is -coordinator: with ShardOf >= 0 the address report
	// envelopes are pushed to; without, the comma-separated shard ingest
	// addresses to scatter over, which makes this process the coordinator.
	Coordinator string

	// Ticks, when non-nil, replaces the Window ticker: tests feed ticks by hand.
	Ticks <-chan time.Time
}

// role is everything that differs between dcsd's center role and its
// coordinator role; the rest of Run is shared.
type role struct {
	name   string                 // for the startup line
	handle transport.Handler      // one TCP frame
	batch  transport.BatchHandler // one UDP datagram's frames
	tick   func()
	// wake is poked from the transport goroutines when there may be a report
	// to finish without waiting for the next tick; woken finishes it, on the
	// loop's goroutine like tick.
	wake     <-chan struct{}
	woken    func()
	draining string // what drain does, for the shutdown line
	drain    func()
	stats    func(tcp *transport.Server, udp *transport.UDPServer)
	center   *center.Center // nil in the coordinator role
	health   httpDeps       // the role's share of /healthz
	close    func()
}

// Run is the dcsd process: it assembles the role cfg selects, recovers the
// journal before listening, serves until ctx is cancelled (or for one tick,
// with Once), drains what is still buffered and returns. The cancellation
// cause is logged as the reason for the shutdown.
func Run(ctx context.Context, cfg Config) error {
	reg := metrics.NewRegistry()
	var ev *eventLog
	if cfg.Events != "" {
		var err error
		if ev, err = openEventLog(cfg.Events); err != nil {
			return err
		}
	}
	defer closeLogged("events", ev.Close)
	newRole := centerRole
	if cfg.Coordinator != "" && cfg.ShardOf < 0 {
		newRole = coordinatorRole
	}
	r, err := newRole(cfg, reg, ev)
	if err != nil {
		return err
	}
	defer r.close()

	var gate transport.GateConfig
	if cfg.RateLimit > 0 {
		gate = transport.GateConfig{Rate: cfg.RateLimit, MaxStrikes: 8, Cooldown: 30 * time.Second}
	}
	srv, err := transport.ServeConfig(cfg.Listen, r.handle, transport.ServerConfig{ReadTimeout: cfg.ConnTimeout, Gate: gate})
	if err != nil {
		return err
	}
	defer closeLogged("tcp", srv.Close)
	srv.Stats().Register(reg, "")
	log.Printf("dcsd %s listening on %s (window %v)", r.name, srv.Addr(), cfg.Window)
	fmt.Println(srv.Addr()) // machine-readable line for scripts

	var usrv *transport.UDPServer
	if cfg.UDP != "" {
		if usrv, err = transport.ServeUDPBatch(cfg.UDP, r.batch, transport.UDPServerConfig{Gate: gate}); err != nil {
			return err
		}
		defer closeLogged("udp", usrv.Close)
		usrv.Stats().Register(reg, "dcs_transport_udp")
		log.Printf("dcsd udp ingest on %s (batched datagrams, loss-tolerant)", usrv.Addr())
		fmt.Println(usrv.Addr()) // machine-readable line for scripts
	}

	if cfg.HTTP != "" {
		hln, err := net.Listen("tcp", cfg.HTTP)
		if err != nil {
			return fmt.Errorf("http: %w", err)
		}
		r.health.tcp, r.health.udp = srv, usrv
		hsrv := &http.Server{Handler: newHTTPHandler(reg, r.center, r.health)}
		var served sync.WaitGroup
		served.Add(1)
		go func() {
			defer served.Done()
			if err := hsrv.Serve(hln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http: %v", err)
			}
		}()
		defer func() {
			closeLogged("http", hsrv.Close)
			served.Wait()
		}()
		log.Printf("dcsd http endpoints on %s (/metrics /healthz /debug/pprof)", hln.Addr())
	}

	ticks := cfg.Ticks
	if ticks == nil {
		ticker := time.NewTicker(cfg.Window)
		defer ticker.Stop()
		ticks = ticker.C
	}
	stats := func() {
		if cfg.Stats {
			r.stats(srv, usrv)
		}
	}
	for {
		select {
		case <-ticks:
			r.tick()
			stats()
			if cfg.Once {
				r.drain()
				return nil
			}
			// A tick that queued while this one was handled would be taken
			// at once, putting two quiescence observations microseconds apart
			// instead of a window apart. Drop it; the next is on schedule.
			select {
			case <-ticks:
			default:
			}
		case <-r.wake:
			r.woken()
		case <-ctx.Done():
			log.Printf("%v: %s and shutting down", context.Cause(ctx), r.draining)
			r.drain()
			stats()
			return nil
		}
	}
}

func closeLogged(what string, closeFn func() error) {
	if err := closeFn(); err != nil {
		log.Printf("%s close: %v", what, err)
	}
}

// closeClient flushes and closes a reconnecting client, logging whatever its
// buffer still held.
func closeClient(what string, c *transport.ReconnectingClient) {
	c.Flush(2 * time.Second)
	if abandoned, err := c.Close(); err != nil {
		log.Printf("%s close: %v (%d frames abandoned)", what, err, abandoned)
	} else if abandoned > 0 {
		log.Printf("%s close: %d frames abandoned in the reconnect buffer", what, abandoned)
	}
}

// shardConfig narrows a deployment's center config and journal directory to
// shard i's: the partition's predicates installed, and a private
// <dir>/shard-<i> — shards never share a write-ahead log, so restarts,
// replays and purges stay independent. A 1-shard partition derives
// always-true predicates and behaves bit-identically to no partition.
func shardConfig(cfg center.Config, part shard.Partition, i int, dir string) (center.Config, string) {
	cfg.OwnsEpoch, cfg.OwnsSpan = part.OwnsEpoch(i), part.OwnsSpan(i)
	if dir != "" {
		dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
	}
	return cfg, dir
}

// centerRole is dcsd as an analysis center — un-sharded, or shard ShardOf of
// Shards pushing its reports to the coordinator.
func centerRole(cfg Config, reg *metrics.Registry, ev *eventLog) (*role, error) {
	ccfg, dir := cfg.Center, cfg.Journal
	if cfg.ShardOf >= 0 {
		if cfg.ShardOf >= cfg.Shards {
			return nil, fmt.Errorf("-shard-of %d out of range for -shards %d", cfg.ShardOf, cfg.Shards)
		}
		ccfg, dir = shardConfig(ccfg, shard.Partition{Shards: cfg.Shards, Slide: ccfg.WindowSlide}, cfg.ShardOf, dir)
	}
	n := NewNode(ccfg, log.Default())
	n.Center.RegisterMetrics(reg)
	if ev != nil {
		ev.attachStats(n.Center.Stats())
		n.events = ev
	}
	if dir != "" {
		if err := n.OpenJournal(dir); err != nil {
			return nil, err
		}
		n.Journal.RegisterMetrics(reg)
	}
	var pc *transport.ReconnectingClient
	switch {
	case cfg.ShardOf >= 0 && cfg.Coordinator != "":
		pc = transport.NewReconnectingClient(cfg.Coordinator, transport.ReconnectConfig{})
		n.push, n.shard = pc, cfg.ShardOf
		log.Printf("dcsd running as shard %d of %d, reporting to coordinator %s", cfg.ShardOf, cfg.Shards, cfg.Coordinator)
	case cfg.ShardOf >= 0:
		log.Printf("dcsd running as shard %d of %d (no -coordinator: reports stay local)", cfg.ShardOf, cfg.Shards)
	}
	return &role{
		name:     "analysis center",
		handle:   n.Handle,
		batch:    n.HandleBatch,
		tick:     func() { n.Tick() },
		wake:     n.Center.Completed(),
		woken:    func() { n.Wake() },
		draining: "analyzing remaining epochs",
		drain:    func() { n.Drain() },
		stats: func(tcp *transport.Server, udp *transport.UDPServer) {
			t, s := tcp.Stats().Snapshot(), n.Center.Stats().Snapshot()
			log.Printf("stats: frames in=%d bad=%d; conns accepted=%d reaped=%d; quarantined senders=%d drops=%d; digests ingested=%d late=%d dup=%d replaced=%d dropped=%d misrouted=%d shed=%d rejected=%d unknown=%d; epochs analyzed=%d degraded=%d evicted=%d shed=%d",
				t.FramesIn, t.BadFrames, t.ConnsAccepted, t.ConnsReaped,
				t.QuarantinedSenders, t.QuarantineDrops,
				s.DigestsIngested, s.LateDigests, s.DuplicateDigests, s.ReplacedDigests, s.DroppedDigests, s.MisroutedDigests,
				s.ShedDigests, s.RejectedDigests, s.UnknownMessages,
				s.EpochsAnalyzed, s.DegradedEpochs, s.EpochsEvicted, s.ShedEpochs)
			if udp != nil {
				u := udp.Stats().Snapshot()
				log.Printf("stats: udp datagrams in=%d rejected=%d lost=%d late=%d; frames in=%d bad=%d",
					u.DatagramsIn, u.DatagramsRejected, u.DatagramsLost, u.DatagramsLate,
					u.FramesIn, u.BadFrames)
			}
		},
		center: n.Center,
		health: httpDeps{jr: n.Journal},
		close: func() {
			if pc != nil {
				closeClient("coordinator push", pc)
			}
			closeLogged("journal", n.Close)
		},
	}, nil
}

// coordinatorRole is dcsd's scatter/gather mode, with no center of its own:
// it scatters each digest to every shard whose spans need it, gathers the
// shards' report envelopes back over the same listeners, and emits one
// merged, epoch-ordered verdict stream — reporting exactly as a single dcsd
// would have. A shard that dies or goes silent degrades its spans
// (synthesized tombstones naming the missing routers) instead of wedging or
// falsifying the merge.
func coordinatorRole(cfg Config, reg *metrics.Registry, ev *eventLog) (*role, error) {
	addrs := strings.Split(cfg.Coordinator, ",")
	if len(addrs) != cfg.Shards {
		return nil, fmt.Errorf("-coordinator names %d shard addresses but -shards says %d; the partition is derived from -shards, so the deployment must agree", len(addrs), cfg.Shards)
	}
	clients := make([]*transport.ReconnectingClient, len(addrs))
	senders := make([]shard.Sender, len(addrs))
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		clients[i] = transport.NewReconnectingClient(addrs[i], transport.ReconnectConfig{})
		senders[i] = clients[i]
	}
	slide, maxWait := cfg.Center.WindowSlide, cfg.Center.MaxWait
	co := shard.NewCoordinator(shard.Partition{Shards: cfg.Shards, Slide: slide}, senders)
	co.RegisterMetrics(reg)

	drain := func() {
		for _, m := range co.TakeMerged() {
			if m.Synthesized {
				log.Printf("epoch %d SYNTHESIZED DEGRADED: shard %d (%s) never reported its span; routers %v unaccounted for",
					m.Report.Epoch, m.Shard, addrs[m.Shard], m.Report.MissingRouters)
			}
			logReport(log.Default(), m.Report)
			if err := ev.emit(m.Report, 0); err != nil {
				log.Printf("events: epoch %d: %v", m.Report.Epoch, err)
			}
		}
	}
	return &role{
		name: fmt.Sprintf("coordinator, scattering over %d shards %v (slide %d),", cfg.Shards, addrs, slide),
		// Digests scatter, report envelopes from the shards gather — Route
		// forwards those itself.
		handle: func(m transport.Message, _ net.Addr) { co.Route(m) },
		batch: func(ms []transport.Message, _ net.Addr) {
			for _, m := range ms {
				co.Route(m)
			}
		},
		tick: func() {
			// The liveness rule is epoch-driven, exactly like the centers'
			// quorum MaxWait: a span's owner that has fallen -max-wait epochs
			// behind the fleet will never report it, so give up and let the
			// merge synthesize its tombstone rather than wedge forever.
			if n := co.ExpireStale(maxWait); n > 0 {
				log.Printf("coordinator: expired %d stale spans (fleet %d epochs past their owners)", n, maxWait)
			}
			drain()
		},
		// A report gathered between ticks is merged at once: the shards close
		// their epochs as they complete, and the coordinator must not
		// re-quantise those reports to its own tick. Expiry stays on the tick.
		wake:     co.Gathered(),
		woken:    drain,
		draining: "draining merge",
		drain: func() {
			co.ExpireStale(0)
			drain()
		},
		stats: func(*transport.Server, *transport.UDPServer) {
			s := co.Stats()
			log.Printf("coordinator: merged=%d synthesized=%d late-digests=%d dup-reports=%d bad-reports=%d unknown=%d",
				s.Merged, s.Synthesized, s.LateDigests, s.DuplicateReports, s.BadReports, s.UnknownMessages)
			for _, h := range co.Healths() {
				state := h.DegradedCause
				if state == "" {
					state = "ok"
				}
				log.Printf("coordinator: shard %d (%s): %s; routed=%d send-errors=%d reports=%d expired=%d held=%d",
					h.Shard, addrs[h.Shard], state, h.Routed, h.SendErrors, h.Reports, h.Expired, h.HeldEpochs)
			}
		},
		health: httpDeps{co: co},
		close: func() {
			for i, c := range clients {
				closeClient(fmt.Sprintf("shard %d (%s)", i, addrs[i]), c)
			}
		},
	}, nil
}
