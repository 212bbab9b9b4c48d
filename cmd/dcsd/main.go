// Command dcsd runs the DCS analysis center as a TCP daemon: it accepts
// digests from dcsnode collectors, files them by the epoch stamped on each
// digest, and analyzes every epoch exactly once — when a newer epoch shows
// the collectors have moved on, or when the epoch has been idle for a full
// window tick.
//
//	dcsd -listen 127.0.0.1:7460 -window 2s -stats
//
// The daemon infers the case from the digest types it receives; mixing both
// in one epoch is allowed and each case is analyzed independently. -stats
// logs the transport and ingest counters (frames, bad frames, late/dup/
// dropped digests, reaped connections) every window tick.
//
// With -journal <dir> every ingested digest is appended to a crash-safe
// write-ahead log before analysis; after a crash (kill -9, OOM, panic) a
// restart with the same -journal replays every un-analyzed epoch into the
// center, so buffered windows survive the process. Epochs are marked in the
// journal as they are analyzed and their segments deleted once fully
// covered, bounding disk use to the in-flight windows. The log takes one
// write(2) per call — one call per UDP datagram or TCP frame, before its
// digests reach the window — so a process crash loses nothing of a datagram
// or frame already handled. The log is fsynced as a group commit — before
// each report leaves the daemon and once per window tick — so a power cut can
// only take digests of epochs not yet reported, a window's worth at most.
//
// With -http <addr> the daemon serves /metrics (Prometheus text exposition
// of every transport/center/journal counter), /healthz (JSON quorum state
// per buffered epoch) and /debug/pprof. With -events <path> it appends one
// JSON object per analyzed epoch ("-" writes to stdout) — a machine-readable
// companion to the human-oriented log lines.
//
// With -min-routers N the quiescence close is quorum-gated: an epoch that
// fewer than N routers have reported into is held open while known-live
// routers are still missing, up to -max-wait epochs (and at most -max-wait
// extra window ticks when the fleet is not advancing). An epoch analyzed
// below quorum is logged with a DEGRADED marker naming the missing routers,
// and the unaligned component threshold is rescaled for the observed router
// count.
//
// Overload resilience: -mem-budget caps the bytes buffered across epoch
// windows, with -shed-policy picking the sacrifice ("oldest" sheds whole old
// epochs as explicit tombstones, "reject" refuses new digests); -rate-limit
// arms a per-sender admission gate on both listeners that quarantines
// flooders and garbage sprayers (auto-parole after a cool-down). Journal
// write failures (disk full, I/O errors) degrade the journal instead of
// killing the daemon: ingest continues without crash durability, the gap is
// counted, and the journal re-arms itself when the disk recovers. Every
// degradation is visible in /healthz, /metrics, the -events stream, and the
// log.
//
// Streaming analysis: the center maintains each window's analysis state as
// digests arrive, so closing an epoch is a cheap finalize rather than a full
// rebuild (the rebuild-at-analyze path survives in the library as
// center.AnalysisBatch, the reference implementation the equivalence suites
// compare against — reports are bit-identical either way). With -slide W (W >= 2) each analysis covers an overlapping span of W
// consecutive epochs, so common content split across an epoch boundary still
// meets itself inside some span; an epoch's buffered state (and its journal
// frames) is retired only once it has left every future span. Every -events
// line carries the span (span_start/span_epochs/retired_epochs) and the
// running p50/p99 of the ingest-to-analyze and finalize latency histograms.
//
// This file is the flag set and nothing else: the daemon itself — both the
// center role and, with -coordinator, the scatter/gather role — is
// internal/daemon.Run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/daemon"
)

func main() {
	cfg := daemon.Config{}
	c := &cfg.Center
	flag.StringVar(&cfg.Listen, "listen", "127.0.0.1:7460", "address to listen on")
	flag.StringVar(&cfg.UDP, "udp", "", "also accept batched digest datagrams on this UDP address (empty = off)")
	flag.DurationVar(&cfg.Window, "window", 2*time.Second, "analysis window tick")
	flag.DurationVar(&cfg.ConnTimeout, "conn-timeout", 2*time.Minute, "reap collector connections idle this long")
	flag.IntVar(&c.MaxEpochs, "max-epochs", 4, "epochs buffered at once (reorder window)")
	flag.IntVar(&c.SubsetSize, "subset", 512, "aligned detector subset size n'")
	flag.IntVar(&c.ComponentThreshold, "er-threshold", 12, "unaligned ER component threshold")
	flag.IntVar(&c.Beta, "beta", 8, "unaligned core size")
	flag.IntVar(&c.D, "d", 2, "unaligned expansion degree threshold")
	flag.IntVar(&c.Parallelism, "workers", 0, "analysis goroutines (0 = GOMAXPROCS, negative = serial)")
	flag.BoolVar(&cfg.Once, "once", false, "analyze one window tick and exit (for scripting)")
	flag.BoolVar(&cfg.Stats, "stats", false, "log transport/ingest counters every window tick")
	flag.StringVar(&cfg.Journal, "journal", "", "directory for the crash-safe digest journal (empty = no journal)")
	flag.IntVar(&c.MinRouters, "min-routers", 0, "quorum: hold an epoch open until this many routers reported (0 = off)")
	flag.IntVar(&c.MaxWait, "max-wait", 2, "epochs (and idle ticks) a below-quorum window may be held open")
	flag.StringVar(&cfg.HTTP, "http", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	flag.StringVar(&cfg.Events, "events", "", `append one JSON event per analyzed epoch to this file ("-" = stdout)`)
	flag.IntVar(&c.WindowSlide, "slide", 1, "sliding-window width W: each analysis covers a span of W consecutive epochs, overlapping the previous span by W-1 (1 = classic per-epoch)")
	flag.Int64Var(&c.MemoryBudgetBytes, "mem-budget", 0, "byte budget across buffered epoch windows (0 = unlimited)")
	shedPolicy := flag.String("shed-policy", "oldest", `sacrifice when -mem-budget is exhausted: "oldest" sheds whole old epochs, "reject" refuses new digests`)
	flag.Float64Var(&cfg.RateLimit, "rate-limit", 0, "per-sender admission rate, frames (TCP) or datagrams (UDP) per second; offenders are quarantined (0 = off)")
	flag.IntVar(&cfg.Shards, "shards", 1, "total shard count N of a sharded deployment; the span-to-shard partition is derived from this and -slide")
	flag.IntVar(&cfg.ShardOf, "shard-of", -1, "run as shard I (0-based) of -shards: ingest only owned epochs, report only owned spans, and push report envelopes to -coordinator (-1 = un-sharded)")
	flag.StringVar(&cfg.Coordinator, "coordinator", "", "with -shard-of: coordinator address to push report envelopes to; without: run as the coordinator, scattering over this comma-separated list of shard ingest addresses")
	flag.Parse()

	switch *shedPolicy {
	case "oldest":
		c.Shedding = center.ShedOldest
	case "reject":
		c.Shedding = center.RejectNew
	default:
		log.Fatalf(`-shed-policy %q: want "oldest" or "reject"`, *shedPolicy)
	}

	// The signal that ends the run is the cancellation cause, so the
	// daemon's shutdown line names it.
	ctx, cancel := context.WithCancelCause(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() { cancel(fmt.Errorf("signal %v", <-sig)) }()
	if err := daemon.Run(ctx, cfg); err != nil {
		log.Fatal(err)
	}
}
