//go:build linux

package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"dcstream/internal/transport"
)

// tracedOutcome is what a traced run measured: the per-layer metrics it is
// for, the end-to-end numbers of its (shorter) daemon run, and the spans.
type tracedOutcome struct {
	perLayer outcome
	endToEnd outcome
	spans    []span
}

// zeroValues starts every per-layer metric at 0; a workload that silences a
// layer leaves its metrics there.
func zeroValues(defs []metricDef) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		out[d.Name] = 0
	}
	return out
}

// histQuantile reads a quantile off a scraped histogram by linear
// interpolation inside the bucket that holds it.
func histQuantile(m map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range m {
		if le, ok := strings.CutPrefix(k, prefix); ok {
			le = strings.TrimSuffix(le, `"}`)
			if le == "+Inf" {
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err == nil {
				bs = append(bs, bucket{f, v})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := m[name+"_count"]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	rank := q * total
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if b.count == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return bs[len(bs)-1].le
}

// wireBytes is the bytes one epoch's burst puts on the wire: its frames, plus
// a datagram header for every datagram they travel in.
func wireBytes(p *pools, datagramsPerEpoch float64) (float64, error) {
	var buf bytes.Buffer
	for _, m := range p.epochMessages(nil, 1) {
		if err := transport.Write(&buf, m); err != nil {
			return 0, err
		}
	}
	const datagramHeader = 20
	return float64(buf.Len()) + datagramHeader*datagramsPerEpoch, nil
}

// replicaMetrics reads the per-layer numbers off a traced pass.
func replicaMetrics(pass *replicaPass, out map[string]float64) {
	from := pass.firstTimed
	us := func(name string) []float64 { return durations(pass.spans, name, from) }

	out["transport.send_us_per_digest"] = sum(us("transport.send")) / float64(pass.digests)
	out["transport.recv_decode_us_per_digest"] = mean(us("transport.recv_decode"))
	appends := us("journal.append")
	out["journal.append_us_p50"] = quantile(appends, 0.5)
	out["journal.append_us_p90"] = quantile(appends, 0.9)
	out["journal.retire_us_per_epoch"] = mean(us("journal.retire"))
	ia, iu := us("center.ingest_aligned"), us("center.ingest_unaligned")
	out["center.ingest_aligned_us_per_digest"] = mean(ia)
	out["center.ingest_unaligned_us_per_digest"] = mean(iu)
	out["center.ingest_us_p90"] = quantile(append(ia, iu...), 0.9)
	analyze := us("center.analyze")
	out["center.analyze_ms_p50"] = quantile(analyze, 0.5) / 1e3
	out["center.analyze_ms_p90"] = quantile(analyze, 0.9) / 1e3
	out["dcsd.log_us_per_digest"] = mean(us("dcsd.log"))
	out["dcsd.events_emit_us_per_report"] = mean(us("dcsd.events_emit"))

	// Share of each epoch's send-to-report time that some named span below
	// the epoch's root accounts for.
	self := selfTimes(pass.spans)
	var rootDur, rootSelf float64
	for i, s := range pass.spans {
		if s.Name == "epoch" && s.Epoch >= from && s.End > 0 {
			rootDur += float64(s.dur())
			rootSelf += float64(self[i])
		}
	}
	if rootDur > 0 {
		out["dcsd.layer_sum_share"] = 1 - rootSelf/rootDur
	}
}

// burstPathMS is the median time, per epoch, from the burst starting to leave
// the generator to its last digest leaving the handler.
func burstPathMS(pass *replicaPass) float64 {
	per := map[int]float64{}
	for _, s := range pass.spans {
		switch s.Name {
		case "transport.first_arrival", "transport.recv_decode", "dcsd.handler":
			if s.Epoch >= pass.firstTimed {
				per[s.Epoch] += ms(s.dur())
			}
		}
	}
	var xs []float64
	for _, v := range per {
		xs = append(xs, v)
	}
	return median(xs)
}

func environment() map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"kernel":            strings.TrimSpace(string(kernel)),
		"goos":              runtime.GOOS,
		"goarch":            runtime.GOARCH,
		"loopback_only":     true,
		"daemon_processors": daemonProcessors(),
	}
}

// tracedDaemon is the traced run of a daemon workload: a shorter run of the
// real daemon for what only it can report, two lockstep passes through the
// replica (spans on, spans off), and the direct calls into single layers.
func tracedDaemon(w workload, seed uint64, sz sizes, defs []metricDef, log io.Writer) (tracedOutcome, error) {
	out := zeroValues(defs)
	root, err := findRoot()
	if err != nil {
		return tracedOutcome{}, err
	}
	run, err := runDaemon(w, seed, sz, true, log)
	if err != nil {
		return tracedOutcome{}, err
	}
	m, l := run.scrape, run.final
	if l.datagramsIn > 0 {
		out["transport.frames_per_datagram"] = float64(l.wireIn) / float64(l.datagramsIn)
	}
	epochs := float64(run.sent / w.burst())
	if out["transport.wire_bytes_per_digest"], err = wireBytes(run.pools, float64(l.datagramsOut)/epochs); err != nil {
		return tracedOutcome{}, err
	}
	out["transport.wire_bytes_per_digest"] /= float64(w.burst())
	out["transport.datagrams_lost"] = float64(l.datagramsLost)
	out["transport.datagrams_late"] = float64(l.datagramsLate)
	out["transport.datagrams_rejected"] = float64(l.datagramsRejected)
	out["transport.frames_bad"] = float64(l.framesBad)
	out["journal.fsync_ms_p50"] = histQuantile(m, "dcs_journal_fsync_seconds", 0.5) * 1e3
	out["journal.live_segments_peak"] = run.segmentsPeak
	out["journal.unjournaled_frames"] = float64(l.unjournaled)
	out["center.finalize_ms_p50"] = quantile(run.wallMS, 0.5)
	out["center.buffered_bytes_peak"] = run.bufferedPeak
	out["center.digests_late"] = float64(l.late)
	out["center.digests_dropped"] = float64(l.dropped)
	out["center.digests_shed"] = float64(l.shed)
	out["center.digests_rejected"] = float64(l.rejected)
	out["center.epochs_degraded"] = float64(l.degradedEpochs)
	out["dcsd.cpu_user_s"] = run.stat.user.Seconds()
	out["dcsd.cpu_sys_s"] = run.stat.sys.Seconds()
	out["dcsd.peak_rss_mb"] = run.stat.peakRSSMB
	out["dcsd.log_lines_per_digest"] = float64(run.logs) / float64(run.sent)
	out["dcsd.lockstep_digests_per_s"] = quietQuartile(run.lockRates, true)
	out["dcsd.cpu_us_per_digest"] = run.cpuPerDigestUS()
	out["dcsd.loss_ratio"] = float64(run.sent-run.score.okDigests) / float64(run.sent)
	out["dcsd.verdict_mismatch_ratio"] = float64(run.score.mismatches) / float64(run.score.complete)
	out["loadgen.send_late_ms_p90"] = quantile(run.paced.sendLateMS, 0.9)
	out["loadgen.cpu_share"] = run.paced.loadgenCPU.Seconds() / run.paced.wall.Seconds()

	traced, err := runReplica(w, run.pools, root, sz.replicaEpoch, true)
	if err != nil {
		return tracedOutcome{}, err
	}
	plain, err := runReplica(w, run.pools, root, sz.replicaEpoch, false)
	if err != nil {
		return tracedOutcome{}, err
	}
	replicaMetrics(traced, out)
	out["dcsd.trace_overhead_ratio"] = traced.wall.Seconds() / plain.wall.Seconds()
	// The replica's figure is a whole pass's average, so it is held against
	// the daemon's typical window, not its quietest ones.
	daemonCPU := median(append([]float64(nil), run.paced.cpuUS...))
	replicaCPU := float64(plain.cpu.Microseconds()) / float64(plain.digests)
	out["dcsd.replica_cpu_ratio"] = replicaCPU / daemonCPU
	// What the close policy adds: the daemon's report lag less the replica's
	// burst path, analysis and report writing.
	emitMS := (mean(durations(traced.spans, "dcsd.events_emit", traced.firstTimed)) +
		mean(durations(traced.spans, "dcsd.report_log", traced.firstTimed))) / 1e3
	out["dcsd.tick_wait_ms_p50"] = lagQuantile(run.lagsMS, 0.5) - burstPathMS(traced) - out["center.analyze_ms_p50"] - emitMS

	if err := measureLayers(w, run.pools, root, sz.microFor, out); err != nil {
		return tracedOutcome{}, err
	}
	if err := measureCollectors(seed, sz.microFor, out); err != nil {
		return tracedOutcome{}, err
	}
	measureCommon(sz.microFor, out)

	if share := out["dcsd.layer_sum_share"]; share < 0.95 {
		fmt.Fprintf(log, "layer table UNVALIDATED: spans account for %.3f of the send-to-report time; the rest is unattributed time under the epoch roots\n", share)
	}
	if r := out["dcsd.replica_cpu_ratio"]; math.Abs(r-1) > 0.15 {
		fmt.Fprintf(log, "layer table UNVALIDATED: replica %.1f us of processor per digest, daemon %.1f us (ratio %.2f, want within 15%%)\n", replicaCPU, daemonCPU, r)
	} else {
		fmt.Fprintf(log, "layer table validated: replica %.1f us of processor per digest, daemon %.1f us (ratio %.2f)\n", replicaCPU, daemonCPU, r)
	}
	e2e := run.endToEnd(w)
	return tracedOutcome{
		perLayer: outcome{values: out, attempted: e2e.attempted, failed: e2e.failed, correct: e2e.correct},
		endToEnd: e2e,
		spans:    traced.spans,
	}, nil
}

// tracedCollector is the traced run of the collector workload: the same
// epochs, then each collector alone. The center-side layers do nothing on
// this workload and read 0.
func tracedCollector(seed uint64, sz sizes, defs []metricDef) (tracedOutcome, error) {
	out := zeroValues(defs)
	run, err := runCollector(seed, sz, true)
	if err != nil {
		return tracedOutcome{}, err
	}
	if run.why != "" {
		return tracedOutcome{}, fmt.Errorf("collector: %s", run.why)
	}
	out["aligned.collector_update_ns_per_packet"] = run.alignedNS
	out["unaligned.collector_update_ns_per_packet"] = run.unalignNS
	out["aligned.digest_fill_ratio"] = run.fill
	measureCommon(sz.microFor, out)
	e2e := run.endToEnd()
	return tracedOutcome{
		perLayer: outcome{values: out, attempted: e2e.attempted, failed: e2e.failed, correct: e2e.correct},
		endToEnd: e2e,
	}, nil
}
