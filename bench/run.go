//go:build linux

package main

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a run's measurements before BENCHMARK.json gives them units.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	correct   bool
}

// sizes is how much one run measures. The default is derived from --seconds;
// the smoke scale is fixed and small.
type sizes struct {
	setups       int           // times the set-up is repeated; setup_s is their median
	pacedEpochs  int           // open-loop epochs
	lockstepFor  time.Duration // closed-loop phase length
	lockstepMin  int           // closed-loop epochs at least
	replicaEpoch int           // lockstep epochs through the traced replica, per pass
	microFor     time.Duration // time per direct-call measurement
	collectFor   time.Duration // collector workload: timed length
	packets      int           // collector workload: packets per epoch
}

// How many closed-loop epochs are left out of the timed window at each end:
// the pipeline fills over the first, and the last close by quiescence, not by
// a successor.
const (
	lockstepLead = 4
	lockstepTail = lockstepWindow
)

func sizesFor(seconds int, trace bool) sizes {
	s := time.Duration(seconds) * time.Second
	// The open loop runs its lead-in and then whole windows.
	pacedIn := func(d time.Duration) int {
		return pacedLead + max(1, (int(d/epochPeriod)-pacedLead)/statWindow)*statWindow
	}
	if trace {
		// The traced run splits its time between a shorter daemon run (the
		// counters and histograms only the daemon has), two replica passes
		// and the direct calls.
		return sizes{
			setups: 1, pacedEpochs: pacedIn(s * 3 / 10), lockstepFor: s / 5, lockstepMin: 10,
			replicaEpoch: 30, microFor: s / 50, collectFor: s / 2, packets: 100000,
		}
	}
	// The open loop, which times the results, gets nine tenths; the closed
	// loop is there for the checks under saturation.
	paced := pacedIn(s * 9 / 10)
	return sizes{
		setups: 3, pacedEpochs: paced, lockstepFor: max(s-time.Duration(paced)*epochPeriod, s/20), lockstepMin: 16,
		collectFor: s, packets: 100000,
	}
}

func smokeSizes(trace bool) sizes {
	sz := sizes{setups: 1, pacedEpochs: 8, lockstepMin: 8, collectFor: time.Second, packets: 20000}
	if trace {
		sz.replicaEpoch, sz.microFor = 6, 10*time.Millisecond
		sz.collectFor = 500 * time.Millisecond
	}
	return sz
}

// daemonRun is everything one run against the real daemon measured.
type daemonRun struct {
	setupS    []float64
	paced     pacedResult
	lagsMS    []float64 // paced phase after its lead-in: report observed - burst due, per epoch
	lockRates []float64 // lockstep phase: digests per second, one value per statWindow epochs
	score     score
	final     ledger
	scrape    map[string]float64
	wallMS    []float64 // events' wall_ms over the same epochs
	stat      procStat  // whole-life daemon processor time and peak memory
	logs      int       // per-digest log lines
	sent      int
	pools     *pools

	// Traced run only: peaks of two gauges, sampled mid-period.
	bufferedPeak float64
	segmentsPeak float64
}

var errInvalidRun = errors.New("run invalid")

// runDaemon sets the daemon up (several times, for a steady setup_s), drives
// the paced and the lockstep phase against the last one, checks the ledger
// after each, and scores every report. log receives the human-readable
// account.
func runDaemon(w workload, seed uint64, sz sizes, sampleGauges bool, log io.Writer) (*daemonRun, error) {
	if err := checkGenerator(); err != nil {
		return nil, fmt.Errorf("%w: %v", errInvalidRun, err)
	}
	if err := confineGenerator(); err != nil {
		// Not worth failing the run for: it measures the same program, only
		// less steadily.
		fmt.Fprintf(log, "processors not divided, the daemon runs on all of them: %v\n", err)
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	run := &daemonRun{}
	var d *daemon
	var dr *driver
	closeAll := func() {
		if dr != nil {
			_ = dr.snd.Close()
			dr = nil
		}
		if d != nil {
			d.stop()
			d = nil
		}
	}
	defer closeAll()

	// Set-up: build the daemon from source, generate the pools, start the
	// daemon and run the warm-up epochs. Every repetition is a full one; the
	// last keeps its daemon for the measurement.
	for i := 0; i < sz.setups; i++ {
		closeAll()
		t0 := time.Now()
		bin, err := buildDaemon(root)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if run.pools, err = buildPools(w, seed); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if d, err = startDaemon(bin, root, w, 4096); err != nil {
			return nil, err
		}
		if dr, err = newDriver(w, run.pools, seed, d.tcpAddr, d.udpAddr, d.events); err != nil {
			return nil, err
		}
		t3 := time.Now()
		if err := dr.warmUp(epochPeriod); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		run.setupS = append(run.setupS, time.Since(t0).Seconds())
		fmt.Fprintf(log, "set-up %d: %.3fs = build %.3f + pools %.3f + start %.3f + warm-up %.3f\n", i+1,
			time.Since(t0).Seconds(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), time.Since(t3).Seconds())
	}
	// The ledger is kept from the end of the warm-up on. The warm-up is
	// set-up, and its first epoch is the one the daemon cannot protect: the
	// quorum gate only waits for routers it has already heard from, so while
	// the fleet is still introducing itself a slow first ingest (the tracker
	// builds its pruning tables then) can close epoch 1 short.
	base, err := dr.ledger(d)
	if err != nil {
		return nil, err
	}
	base.print(log, "warm-up (the baseline)")
	baseLogs, err := d.logLines()
	if err != nil {
		return nil, err
	}
	checkLedger := func(phase string) error {
		l, err := dr.ledger(d)
		if err != nil {
			return err
		}
		l = l.since(base)
		l.print(log, phase)
		run.final = l
		if err := l.check(); err != nil {
			return fmt.Errorf("ledger does not balance after %s: %w", phase, err)
		}
		return nil
	}

	// Paced phase, open loop.
	var sample func()
	if sampleGauges {
		sample = func() {
			if m, err := d.scrape(); err == nil {
				run.bufferedPeak = max(run.bufferedPeak, m["dcs_center_buffered_bytes"])
				run.segmentsPeak = max(run.segmentsPeak, m["dcs_journal_live_segments"])
			}
		}
	}
	run.paced, err = dr.paced(d, sz.pacedEpochs, epochPeriod, sample)
	if err != nil {
		return nil, fmt.Errorf("paced phase: %w", err)
	}
	for e := run.paced.first + min(pacedLead, sz.pacedEpochs-1); e <= run.paced.last; e++ {
		s := dr.reports[e]
		run.lagsMS = append(run.lagsMS, ms(s.at.Sub(run.paced.due[e])))
		run.wallMS = append(run.wallMS, s.ev.WallMS)
	}
	fmt.Fprintf(log, "paced lags ms: %.1f\n", run.lagsMS)
	if err := checkLedger("paced phase"); err != nil {
		return nil, err
	}

	// Lockstep phase, closed loop with one client.
	first, last, err := dr.lockstep(sz.lockstepFor, tick, sz.lockstepMin)
	if err != nil {
		return nil, fmt.Errorf("lockstep phase: %w", err)
	}
	from, to := first+lockstepLead, last-lockstepTail
	if to <= from {
		from, to = first, last
	}
	for e := from; e+statWindow-1 <= to; e += statWindow {
		took := dr.reports[e+statWindow-1].at.Sub(dr.reports[e-1].at)
		run.lockRates = append(run.lockRates, float64(statWindow*w.burst())/took.Seconds())
	}
	if len(run.lockRates) == 0 {
		// Fewer epochs than one window (the smoke scale).
		took := dr.reports[to].at.Sub(dr.sendAt[from])
		run.lockRates = []float64{float64((to-from+1)*w.burst()) / took.Seconds()}
	}
	fmt.Fprintf(log, "paced cpu us per digest, by window: %.1f\n", run.paced.cpuUS)
	fmt.Fprintf(log, "lockstep digests per s, by window: %.1f\n", run.lockRates)
	if err := checkLedger("lockstep phase"); err != nil {
		return nil, err
	}

	if run.scrape, err = d.scrape(); err != nil {
		return nil, err
	}
	if run.stat, err = d.procStat(); err != nil {
		return nil, err
	}
	if run.logs, err = d.logLines(); err != nil {
		return nil, err
	}
	run.logs -= baseLogs
	run.sent = dr.sent - base.sent

	// The verdict check runs after the daemon has stopped, so the reference
	// analyses do not compete with it for the processor.
	reports := dr
	closeAll()
	if run.score, err = reports.scoreReports(newReference(run.pools)); err != nil {
		return nil, err
	}
	sc := run.score
	fmt.Fprintf(log, "verdicts: %d reports, %d complete, %d mismatches, %d detections, %d non-detections\n",
		sc.reports, sc.complete, sc.mismatches, sc.detections, sc.nonDetections)
	if sc.mismatches > 0 {
		return run, fmt.Errorf("verdict mismatch: %s", sc.firstMismatch)
	}
	if sc.complete < sc.reports {
		return run, fmt.Errorf("%d of %d reports incomplete, first %s", sc.reports-sc.complete, sc.reports, sc.firstIncomplete)
	}
	if sc.detections == 0 || sc.nonDetections == 0 {
		return run, fmt.Errorf("workload saw %d detections and %d non-detections; it needs both", sc.detections, sc.nonDetections)
	}

	// Generator self-check: a late or busy generator measured itself.
	if late := quantile(append([]float64(nil), run.paced.sendLateMS...), 0.9); late > 10 {
		return run, fmt.Errorf("%w: generator ran late, send_late_ms_p90 = %.2f", errInvalidRun, late)
	}
	if share := run.paced.loadgenCPU.Seconds() / run.paced.wall.Seconds(); share > 0.5 {
		return run, fmt.Errorf("%w: generator used %.2f of a core in the paced phase", errInvalidRun, share)
	}
	return run, nil
}

// endToEnd turns a daemon run into the end-to-end metrics.
func (run *daemonRun) endToEnd(w workload) outcome {
	return outcome{
		correct:   run.score.mismatches == 0,
		attempted: run.sent,
		failed:    run.sent - run.score.okDigests,
		values: map[string]float64{
			"setup_s":           median(run.setupS),
			"result_lag_p50_ms": lagQuantile(run.lagsMS, 0.5),
			"result_lag_p90_ms": lagQuantile(run.lagsMS, 0.9),
		},
	}
}

// cpuPerDigestUS is the daemon's processor time per digest sent in the paced
// phase: the lower quartile over the phase's windows.
func (run *daemonRun) cpuPerDigestUS() float64 { return quietQuartile(run.paced.cpuUS, false) }
