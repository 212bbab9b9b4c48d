//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"dcstream/internal/stats"
	"dcstream/internal/transport"
)

// sender is the one connection that carries the whole fleet's digests.
type sender interface {
	Send(m transport.Message) error
	Close() error
}

// dial opens the workload's transport to the daemon: one batching UDP socket
// or one framed TCP connection. flush ends a burst; the UDP client's flush
// timer is off so a burst's datagrams leave exactly when the burst ends.
func dial(w workload, tcpAddr, udpAddr string) (snd sender, flush func() error, stats *transport.Stats, err error) {
	if w.udp {
		c, err := transport.DialUDP(udpAddr, transport.UDPClientConfig{
			SenderID: 1, MaxDatagramBytes: w.datagramBytes, FlushInterval: -1,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return c, c.Flush, c.Stats(), nil
	}
	c, err := transport.Dial(tcpAddr, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, func() error { return nil }, c.Stats(), nil
}

// driver runs the phases against one daemon (or the replica) and keeps the
// books.
type driver struct {
	w      workload
	p      *pools
	events <-chan stamped // reports, stamped on arrival
	snd    sender
	flush  func() error
	tx     *transport.Stats

	// Traced replica only: burstStart is told when an epoch's burst begins,
	// and each burst's send is recorded as a span.
	burstStart func(epoch int)
	tr         *tracer
	sendCPU    time.Duration // processor time the sending thread spent inside sendBurst

	next    int               // next epoch to send; epochs start at 1
	sent    int               // digests handed to the transport so far
	sendAt  map[int]time.Time // when each epoch's burst started
	rng     *rand.Rand        // think times
	reports map[int]stamped   // first report seen per epoch
	extra   int               // reports for an epoch already reported, or unparseable
	msgs    []transport.Message
}

func newDriver(w workload, p *pools, seed uint64, tcpAddr, udpAddr string, events <-chan stamped) (*driver, error) {
	snd, flush, tx, err := dial(w, tcpAddr, udpAddr)
	if err != nil {
		return nil, err
	}
	return &driver{
		w: w, p: p, events: events, snd: snd, flush: flush, tx: tx,
		next: 1, sendAt: map[int]time.Time{}, reports: map[int]stamped{},
		rng: stats.NewRand(stats.SubSeed(seed, streamThink)),
	}, nil
}

// sendBurst sends the next epoch's digests back to back and returns its
// epoch number.
func (dr *driver) sendBurst() (int, error) {
	e := dr.next
	dr.next++
	dr.msgs = dr.p.epochMessages(dr.msgs[:0], e)
	if dr.burstStart != nil {
		dr.burstStart(e)
	}
	start, cpu0 := time.Now(), threadCPU()
	dr.sendAt[e] = start
	for _, m := range dr.msgs {
		if err := dr.snd.Send(m); err != nil {
			return e, fmt.Errorf("send epoch %d: %w", e, err)
		}
	}
	dr.sent += len(dr.msgs)
	err := dr.flush()
	end := time.Now()
	dr.sendCPU += threadCPU() - cpu0
	dr.tr.add("transport.send", start, end, -1, e)
	return e, err
}

func (dr *driver) record(s stamped) {
	if _, dup := dr.reports[s.ev.Epoch]; dup || s.ev.Epoch < 1 || s.ev.Epoch >= dr.next {
		dr.extra++
		return
	}
	dr.reports[s.ev.Epoch] = s
}

// drain records every report that has already arrived.
func (dr *driver) drain() {
	for {
		select {
		case s := <-dr.events:
			dr.record(s)
		default:
			return
		}
	}
}

// await blocks until epoch's report has arrived.
func (dr *driver) await(epoch int, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if _, ok := dr.reports[epoch]; ok {
			return nil
		}
		select {
		case s := <-dr.events:
			dr.record(s)
		case <-deadline.C:
			return fmt.Errorf("no report for epoch %d within %v", epoch, timeout)
		}
	}
}

const reportTimeout = 10 * time.Second

// lockstepWindow is how many epochs the closed loop keeps unreported: burst e
// goes out when the report for e-2 has been read. Two is the most the
// daemon's default ring of four epochs carries under -slide 3, where two
// retained context epochs share it with the epochs in flight.
const lockstepWindow = 2

// lockstep sends bursts in a closed loop with one client: burst e goes out
// once the report for e-lockstepWindow has been read and the client has
// thought for a random time up to think. It runs until the duration has
// passed and at least minEpochs bursts are out, then waits for every report.
// It returns the first and last epoch sent.
//
// The think time is what makes the rate repeatable. Reports leave the daemon
// on its 50ms tick, so a loop that answers each report at once locks onto the
// tick: every cycle costs exactly one tick or exactly two, and which rhythm a
// run settles into moved the rate by a third between runs of one build. A
// think time uniform over one tick is dither against that quantizer: the
// phase is random per epoch, and the mean cycle follows the daemon's own
// costs smoothly.
func (dr *driver) lockstep(dur, think time.Duration, minEpochs int) (first, last int, err error) {
	first = dr.next
	start := time.Now()
	for i := 0; i < minEpochs || time.Since(start) < dur; i++ {
		if i >= lockstepWindow {
			if err := dr.await(first+i-lockstepWindow, reportTimeout); err != nil {
				return first, last, err
			}
			if think > 0 {
				time.Sleep(time.Duration(dr.rng.Int63n(int64(think))))
			}
		}
		if last, err = dr.sendBurst(); err != nil {
			return first, last, err
		}
	}
	return first, last, dr.await(last, reportTimeout)
}

// warmUp sends the warm-up epochs: in the closed loop's window, so the slow
// first epoch cannot push a later one out of the daemon's ring, and no burst
// sooner than a period after the one before.
func (dr *driver) warmUp(period time.Duration) error {
	first := dr.next
	var sent time.Time
	for i := 0; i < warmEpochs; i++ {
		if i >= lockstepWindow {
			if err := dr.await(first+i-lockstepWindow, reportTimeout); err != nil {
				return err
			}
		}
		time.Sleep(time.Until(sent.Add(period)))
		sent = time.Now()
		if _, err := dr.sendBurst(); err != nil {
			return err
		}
	}
	return dr.await(dr.next-1, reportTimeout)
}

// pacedResult is what the open-loop phase measured.
type pacedResult struct {
	first, last int
	due         map[int]time.Time
	sendLateMS  []float64 // how late each burst started
	wall        time.Duration
	cpuUS       []float64     // daemon processor time per digest, one value per statWindow bursts
	loadgenCPU  time.Duration // this process's processor time over the phase
}

func selfCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the calling thread's processor time. It is the sender's own
// only because the sender's goroutine is locked to its thread (startDaemon
// and runReplica see to that).
func threadCPU() time.Duration { return rusageCPU(rusageThread) }

const rusageThread = 1 // RUSAGE_THREAD, which package syscall does not name

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statWindow is how many consecutive epochs one sample of a rate or of a lag
// quantile covers: two turns of the pool's five variants, so every window
// holds every variant twice (two detections, eight non-detections) and
// windows differ only by what disturbed them. A run's figure is the better
// quartile of its windows' figures (see quietQuartile), so a stretch of the
// run that the host slowed down costs the windows it hit, not the run.
const statWindow = 2 * poolVariants

// pacedLead is how many open-loop epochs at the start are sent and checked but
// not timed: the daemon sat idle through the ledger scrape before them, and
// the first burst after that reads up to twice the usual lag.
const pacedLead = 2

// paced sends n bursts in an open loop: burst i is due at t0 + i*period and
// goes out then, whatever the daemon has or has not finished. sample, when
// set, is called a third of a period after every fourth burst, while that
// burst's epoch is still buffered.
func (dr *driver) paced(d *daemon, n int, period time.Duration, sample func()) (pacedResult, error) {
	res := pacedResult{first: dr.next, due: map[int]time.Time{}}
	before, err := d.procStat()
	if err != nil {
		return res, err
	}
	beforeAt := 0 // the burst ahead of which before was read
	self := selfCPU()
	t0 := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		res.sendLateMS = append(res.sendLateMS, ms(time.Since(due)))
		if i >= pacedLead && (i-pacedLead)%statWindow == 0 {
			now, err := d.procStat()
			if err != nil {
				return res, err
			}
			if i > pacedLead {
				res.cpuUS = append(res.cpuUS, float64((now.cpu()-before.cpu()).Microseconds())/float64(statWindow*dr.w.burst()))
			}
			before, beforeAt = now, i
		}
		e, err := dr.sendBurst()
		if err != nil {
			return res, err
		}
		res.due[e] = due
		res.last = e
		dr.drain()
		if sample != nil && i%4 == 0 {
			time.Sleep(time.Until(due.Add(period / 3)))
			sample()
		}
	}
	if err := dr.await(res.last, reportTimeout); err != nil {
		return res, err
	}
	res.wall = time.Since(t0)
	res.loadgenCPU = selfCPU() - self
	if n-beforeAt == statWindow || len(res.cpuUS) == 0 {
		// The last window closes with the last report. With fewer bursts than
		// one window (the smoke scale) what there is makes the one sample.
		after, err := d.procStat()
		if err != nil {
			return res, err
		}
		res.cpuUS = append(res.cpuUS, float64((after.cpu()-before.cpu()).Microseconds())/float64((n-beforeAt)*dr.w.burst()))
	}
	return res, nil
}

// generatorThreads is the goroutines that generate load or read results: the
// sender and the event reader. More than nproc of them would contend with
// the daemon for a core and void the run.
const generatorThreads = 2

func checkGenerator() error {
	if n := runtime.NumCPU(); generatorThreads > n {
		return fmt.Errorf("generator needs %d threads, machine has %d", generatorThreads, n)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
