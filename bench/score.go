//go:build linux

package main

import (
	"fmt"
	"io"
	"sort"
)

// ledger follows every digest the generator sent to where the daemon says it
// ended up. Counts are cumulative since the daemon started until since takes
// a baseline off them.
type ledger struct {
	sent int // digests the generator handed to its transport

	// transport (from /metrics, both listeners summed)
	wireIn            int // frames the daemon's listeners decoded
	framesBad         int
	datagramsOut      int // generator's own count
	datagramsIn       int
	datagramsLost     int
	datagramsLate     int
	datagramsRejected int

	// center
	ingested, late, duplicate, rejected, misrouted, unknown int
	dropped, shed, degradedEpochs                           int

	// journal
	appends, unjournaled int

	inReports int // digests counted in some report's routers total (from -events)
	extra     int // reports the generator did not expect
}

// since returns the ledger of what happened after base was taken.
func (l ledger) since(base ledger) ledger {
	l.sent -= base.sent
	l.wireIn -= base.wireIn
	l.framesBad -= base.framesBad
	l.datagramsOut -= base.datagramsOut
	l.datagramsIn -= base.datagramsIn
	l.datagramsLost -= base.datagramsLost
	l.datagramsLate -= base.datagramsLate
	l.datagramsRejected -= base.datagramsRejected
	l.ingested -= base.ingested
	l.late -= base.late
	l.duplicate -= base.duplicate
	l.rejected -= base.rejected
	l.misrouted -= base.misrouted
	l.unknown -= base.unknown
	l.dropped -= base.dropped
	l.shed -= base.shed
	l.degradedEpochs -= base.degradedEpochs
	l.appends -= base.appends
	l.unjournaled -= base.unjournaled
	l.inReports -= base.inReports
	l.extra -= base.extra
	return l
}

// lostInDatagrams is what left the generator and never reached a listener's
// decoder as a good or bad frame. A whole datagram is lost at a time, so the
// count is in digests but moves in steps of a datagram's load.
func (l ledger) lostInDatagrams() int { return l.sent - l.wireIn - l.framesBad }

func (dr *driver) ledger(d *daemon) (ledger, error) {
	m, err := d.scrape()
	if err != nil {
		return ledger{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	both := func(suffix string) int {
		return int(m["dcs_transport_"+suffix] + m["dcs_transport_udp_"+suffix])
	}
	l := ledger{
		sent:              dr.sent,
		wireIn:            both("frames_in_total"),
		framesBad:         both("frames_bad_total"),
		datagramsOut:      int(dr.tx.DatagramsOut.Load()),
		datagramsIn:       both("datagrams_in_total"),
		datagramsLost:     both("datagrams_lost_total"),
		datagramsLate:     both("datagrams_late_total"),
		datagramsRejected: both("datagrams_rejected_total"),
		ingested:          int(m["dcs_center_digests_ingested_total"]),
		late:              int(m["dcs_center_digests_late_total"]),
		duplicate:         int(m["dcs_center_digests_duplicate_total"]),
		rejected:          int(m["dcs_center_shed_rejected_total"]),
		misrouted:         int(m["dcs_center_digests_misrouted_total"]),
		unknown:           int(m["dcs_center_messages_unknown_total"]),
		dropped:           int(m["dcs_center_digests_dropped_total"]),
		shed:              int(m["dcs_center_shed_digests_total"]),
		degradedEpochs:    int(m["dcs_center_epochs_degraded_total"]),
		appends:           int(m["dcs_journal_appends_total"]),
		unjournaled:       int(m["dcs_journal_unjournaled_total"]),
		extra:             dr.extra,
	}
	for _, s := range dr.reports {
		if !s.ev.Shed {
			l.inReports += dr.w.reportedDigests(s.ev.Routers)
		}
	}
	return l, nil
}

// check requires the books to balance exactly: every digest sent is in a
// report, or counted late, dropped, shed, rejected or lost in a datagram, and
// nothing else. The transport, center and journal rows are checked on their
// own as well, so a digest cannot be lost between two layers unnoticed.
func (l ledger) check() error {
	if got := l.inReports + l.late + l.dropped + l.shed + l.rejected + l.lostInDatagrams(); got != l.sent {
		return fmt.Errorf("sent %d != in-reports %d + late %d + dropped %d + shed %d + rejected %d + lost-in-datagrams %d",
			l.sent, l.inReports, l.late, l.dropped, l.shed, l.rejected, l.lostInDatagrams())
	}
	if got := l.ingested + l.late + l.duplicate + l.rejected + l.misrouted + l.unknown; got != l.wireIn {
		return fmt.Errorf("frames in %d != ingested %d + late %d + duplicate %d + rejected %d + misrouted %d + unknown %d",
			l.wireIn, l.ingested, l.late, l.duplicate, l.rejected, l.misrouted, l.unknown)
	}
	if l.ingested != l.inReports+l.dropped+l.shed {
		return fmt.Errorf("ingested %d != in-reports %d + dropped %d + shed %d", l.ingested, l.inReports, l.dropped, l.shed)
	}
	if l.datagramsOut-l.datagramsIn != l.datagramsLost+l.datagramsRejected {
		return fmt.Errorf("datagrams out %d - in %d != lost %d + rejected %d",
			l.datagramsOut, l.datagramsIn, l.datagramsLost, l.datagramsRejected)
	}
	if l.appends+l.unjournaled != l.wireIn {
		return fmt.Errorf("journal appends %d + unjournaled %d != frames in %d", l.appends, l.unjournaled, l.wireIn)
	}
	if l.unjournaled != 0 {
		return fmt.Errorf("%d frames unjournaled: the journal degraded", l.unjournaled)
	}
	if l.extra != 0 {
		return fmt.Errorf("%d reports the generator did not expect", l.extra)
	}
	return nil
}

func (l ledger) print(w io.Writer, phase string) {
	fmt.Fprintf(w, "ledger after %s: sent %d = in-reports %d + late %d + dropped %d + shed %d + rejected %d + lost-in-datagrams %d"+
		" | frames in %d bad %d, datagrams out %d in %d lost %d late %d rejected %d | ingested %d duplicate %d | journal appends %d unjournaled %d\n",
		phase, l.sent, l.inReports, l.late, l.dropped, l.shed, l.rejected, l.lostInDatagrams(),
		l.wireIn, l.framesBad, l.datagramsOut, l.datagramsIn, l.datagramsLost, l.datagramsLate, l.datagramsRejected,
		l.ingested, l.duplicate, l.appends, l.unjournaled)
}

// score is the verdict check over every report of a run.
type score struct {
	okDigests       int // digests in complete reports that match the reference and the planted truth
	reports         int
	complete        int
	mismatches      int // complete reports that differ from the reference or the truth
	detections      int
	nonDetections   int
	firstMismatch   string
	firstIncomplete string
}

// scoreReports compares every report after the warm-up with the reference
// center and with what was planted. A report is complete when the whole fleet is in it and nothing
// was shed, refused or degraded.
func (dr *driver) scoreReports(ref *reference) (score, error) {
	var sc score
	epochs := make([]int, 0, len(dr.reports))
	for e := range dr.reports {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	for _, e := range epochs {
		if e <= warmEpochs {
			continue // set-up, not measured
		}
		ev := dr.reports[e].ev
		sc.reports++
		if ev.Shed || ev.Degraded || ev.RejectedDigests > 0 || ev.Routers != dr.w.fleet {
			if sc.firstIncomplete == "" {
				sc.firstIncomplete = fmt.Sprintf("epoch %d: %d of %d routers, degraded %v, shed %v, %d digests refused",
					e, ev.Routers, dr.w.fleet, ev.Degraded, ev.Shed, ev.RejectedDigests)
			}
			continue
		}
		sc.complete++
		got := eventVerdict(ev)
		want, err := ref.verdict(1, e)
		if err != nil {
			return sc, err
		}
		why := ""
		if !got.equal(want) {
			why = fmt.Sprintf("differs from the reference center: got %+v, want %+v", got, want)
		} else {
			why = truthMismatch(dr.w, 1, e, got)
		}
		if why != "" {
			sc.mismatches++
			if sc.firstMismatch == "" {
				sc.firstMismatch = fmt.Sprintf("epoch %d: %s", e, why)
			}
			continue
		}
		if got.Found {
			sc.detections++
		} else {
			sc.nonDetections++
		}
		sc.okDigests += dr.w.burst()
	}
	return sc, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietQuartile turns the figures of a run's windows into the run's figure:
// the quartile on the better side, the lower one of lags and costs, the upper
// one of rates. The host only ever takes time away (processor steal, a busy
// neighbour on the core's other thread), and it does so in episodes, so the
// windows that read best are the ones closest to the program's own behaviour:
// an episode costs the windows it hit, and the better quartile has not seen
// it. Anything the program itself does every few epochs is in every window
// and shows. Taken over the whole run, the 90th-percentile lag of ten runs of
// one build had a quartile spread of 84ms on a median of 203ms. xs is not
// modified.
func quietQuartile(xs []float64, higherIsBetter bool) float64 {
	xs = append([]float64(nil), xs...)
	if higherIsBetter {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// windowQuantiles cuts xs, in the order the samples were taken, into windows
// of statWindow and returns each window's q-quantile. A remainder shorter than
// a window is left out, unless it is all there is. xs is not modified.
func windowQuantiles(xs []float64, q float64) []float64 {
	if len(xs) < statWindow {
		return []float64{quantile(append([]float64(nil), xs...), q)}
	}
	var qs []float64
	for ; len(xs) >= statWindow; xs = xs[statWindow:] {
		qs = append(qs, quantile(append([]float64(nil), xs[:statWindow]...), q))
	}
	return qs
}

// lagQuantile is the q-quantile of lag in the quieter stretches of a run.
func lagQuantile(lagsMS []float64, q float64) float64 {
	return quietQuartile(windowQuantiles(lagsMS, q), false)
}
