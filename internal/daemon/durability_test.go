package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/faultinject/fsfault"
	"dcstream/internal/journal"
	"dcstream/internal/metrics"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

// faultNode is a node whose journal sits on a fault-injecting filesystem.
func faultNode(t *testing.T, cfg center.Config, logger *log.Logger) (*Node, *fsfault.FS, string) {
	t.Helper()
	dir, fs := t.TempDir(), fsfault.NewFS(nil)
	// The hour keeps the backoff timer out of the test: re-arms are explicit.
	jr, err := journal.Open(dir, journal.Options{FS: fs, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(cfg, logger)
	n.Journal = jr
	t.Cleanup(func() { n.Close() })
	return n, fs, dir
}

// nextLife opens a fresh node on a journal image and drains it: what a
// restart after the crash that left the image would report.
func nextLife(t *testing.T, cfg center.Config, image string) (*Node, []center.WindowReport) {
	t.Helper()
	n := NewNode(cfg, nil)
	if err := n.OpenJournal(image); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	reps, err := n.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return n, reps
}

// TestPowerCutNeverOutrunsAReport is the durability contract of group commit
// (DESIGN.md "Crash safety"), over the seeded fleets of
// TestCompletionEquivalentToTicks — joins, leaves, drops, resends, slide 1 and
// 3, quorum holds — with a window tick landing in the middle of every other
// fleet's bursts, so that epochs are routinely half durable when they complete.
//
// Clause one: a power cut while a report is being delivered — the image is
// taken from the push sink, after the barrier and before the marks — leaves
// the next life every digest the report counted. For every span reported so
// far it says exactly what a next life after kill -9 at the same instant
// says; and it repeats the report being delivered bit for bit, and any
// earlier span identically or not at all (its analyzed mark or the span
// watermark suppresses it) — never a different report for a span already
// reported. The bit-for-bit half is checked where the quorum gate is off:
// under the gate a report also reads the router registry (MissingRouters, the
// rescaled component threshold), which no journal restores, kill -9 included.
//
// Clause two: after any tick, a power cut costs no digest Handle returned
// for before it, the digests of held and incomplete epochs included.
func TestPowerCutNeverOutrunsAReport(t *testing.T) {
	type crash struct{ cut, kill string } // journal images: power loss, and kill -9 at the same instant
	images := 0
	// Twelve seeds are every combination of slide, quorum gate and mid-burst
	// tick; each costs some fifty next lives on a real directory.
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := center.Config{SubsetSize: 64, MaxEpochs: 8, MaxWait: 2, TargetP1: 0.05, CoreP1: 0.2}
		if seed%2 == 0 {
			cfg.WindowSlide = 3
		}
		if seed%3 == 0 {
			cfg.MinRouters = 3
		}
		n, fs, dir := faultNode(t, cfg, nil)
		image := func(fs *fsfault.FS) string {
			t.Helper()
			img := filepath.Join(t.TempDir(), "journal")
			if err := fs.PowerCut(dir, img); err != nil {
				t.Fatal(err)
			}
			return img
		}
		// An FS that has tracked no file copies every one whole: what a
		// process crash leaves.
		asWritten := fsfault.NewFS(nil)
		var reported []center.WindowReport
		var during []crash // during[k]: taken while reported[k] was being pushed
		n.push = sendFunc(func() { during = append(during, crash{cut: image(fs), kill: image(asWritten)}) })
		collect := func(reps []center.WindowReport, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			reported = append(reported, reps...)
		}
		tick := func() {
			t.Helper()
			collect(n.Tick())
			two, _ := nextLife(t, cfg, image(fs))
			// The drain emptied the next life's windows; its ingest ledger
			// is what the replay stored.
			if got, want := two.Center.Stats().DigestsIngested.Load(), int64(stored(n.Center)); got != want {
				t.Fatalf("seed %d: a power cut after a tick leaves the next life %d digests, this one holds %d", seed, got, want)
			}
		}
		for _, b := range fleetStream(rng, 12) {
			half := len(b)
			if seed%4 < 2 {
				half /= 2
			}
			for _, m := range b[:half] {
				n.Handle(m, from)
			}
			if half < len(b) {
				tick()
				for _, m := range b[half:] {
					n.Handle(m, from)
				}
			}
			if poked(n) {
				collect(n.Wake())
			}
			tick()
			tick()
		}
		collect(n.Drain())
		if len(during) != len(reported) {
			t.Fatalf("seed %d: %d images for %d reports", seed, len(during), len(reported))
		}
		byEpoch := func(reps []center.WindowReport) map[int]center.WindowReport {
			m := map[int]center.WindowReport{}
			for _, rep := range reps {
				m[rep.Epoch] = rep
			}
			return m
		}
		for k, img := range during {
			_, reps := nextLife(t, cfg, img.cut)
			cut := byEpoch(reps)
			_, reps = nextLife(t, cfg, img.kill)
			kill := byEpoch(reps)
			for i, first := range reported[:k+1] {
				rep, again := cut[first.Epoch]
				if killed, ok := kill[first.Epoch]; ok != again || !reflect.DeepEqual(rep, killed) {
					t.Fatalf("seed %d: while report %d was delivered, span %d after a power cut (reported again: %v) and after kill -9 (%v):\n cut %+v\nkill %+v",
						seed, reported[k].Epoch, first.Epoch, again, ok, rep, killed)
				}
				switch {
				case cfg.MinRouters > 0:
				case again && !reflect.DeepEqual(rep, first):
					t.Fatalf("seed %d: a power cut while report %d was delivered makes the next life report span %d differently:\n got %+v\nwant %+v",
						seed, reported[k].Epoch, first.Epoch, rep, first)
				case !again && i == k:
					t.Fatalf("seed %d: a power cut while report %d was delivered leaves the next life nothing to repeat it from, and no mark says it was delivered", seed, first.Epoch)
				}
			}
		}
		images += len(during)
	}
	if images < 100 {
		t.Fatalf("only %d crash images across all seeds", images)
	}
}

// stored is how many digests the center's buffered windows hold.
func stored(c *center.Center) int {
	total := 0
	for _, d := range c.EpochDigests() {
		total += d
	}
	return total
}

// journalBooks prints the journal counters the barrier tests check.
func journalBooks(jr *journal.Journal) string {
	s := jr.Stats()
	return fmt.Sprintf("degraded=%v appended=%d unjournaled=%d unsynced=%d",
		jr.Degraded(), s.FramesAppended.Load(), s.UnjournaledFrames.Load(), s.UnsyncedFrames.Load())
}

// recordingSender keeps the report envelopes a node pushes.
type recordingSender struct{ envelopes []shard.Envelope }

func (s *recordingSender) Send(m transport.Message) error {
	env, err := shard.DecodeReport(m.(transport.Report))
	s.envelopes = append(s.envelopes, env)
	return err
}

// TestBarrierSyncFaultDegradesAndCounts: under group commit a failed fsync
// costs a batch, and the books say so. The barrier of a report fails: the
// journal degrades as on a failed append, every frame written since the last
// good barrier is counted unjournaled, the report still goes out — with the
// degradation in its envelope, in one log line, and on /healthz — later
// digests are absorbed and counted, and a re-arm restores all of it.
func TestBarrierSyncFaultDegradesAndCounts(t *testing.T) {
	var logs bytes.Buffer
	n, fs, _ := faultNode(t, center.Config{SubsetSize: 64}, log.New(&logs, "", 0))
	up := &recordingSender{}
	n.push = up
	feed := func(e int) {
		t.Helper()
		for _, m := range burst(e, 1, 2, 3) {
			n.Handle(m, from)
		}
	}
	healthz := func() health {
		t.Helper()
		ts := httptest.NewServer(newHTTPHandler(metrics.NewRegistry(), n.Center, httpDeps{jr: n.Journal}))
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	// Epoch 1 registers the fleet and closes on the ticks: one good barrier.
	feed(1)
	n.Tick()
	if reps, err := n.Tick(); err != nil || len(reps) != 1 {
		t.Fatalf("epoch 1: reports %v, err %v", describeAll(reps), err)
	}
	if s := n.Journal.Stats(); s.UnsyncedFrames.Load() != 0 || s.UnjournaledFrames.Load() != 0 {
		t.Fatalf("after a good barrier: %s", journalBooks(n.Journal))
	}

	// Epoch 2 completes; the barrier of its report hits EIO.
	feed(2)
	if u := n.Journal.Stats().UnsyncedFrames.Load(); u != 3 {
		t.Fatalf("three digests appended, %d unsynced", u)
	}
	eio := errors.New("input/output error")
	fs.FailNext(fsfault.FaultSync, 1, eio)
	if !poked(n) {
		t.Fatal("epoch 2 is complete and the center did not poke")
	}
	reps, err := n.Wake()
	if err != nil || !reflect.DeepEqual(describeAll(reps), []string{"2"}) {
		t.Fatalf("the report of the failed barrier: %v, err %v — it must still go out", describeAll(reps), err)
	}
	s := n.Journal.Stats()
	if !n.Journal.Degraded() || s.UnjournaledFrames.Load() != 3 || s.FramesAppended.Load() != 6 || s.UnsyncedFrames.Load() != 0 {
		t.Fatalf("after the failed barrier: %s, want degraded with all 3 frames of the batch unjournaled", journalBooks(n.Journal))
	}
	if cause := n.Journal.DegradedCause(); !errors.Is(cause, eio) {
		t.Fatalf("degraded cause %v, want the sync fault", cause)
	}
	if env := up.envelopes[len(up.envelopes)-1]; env.Report.Epoch != 2 || !env.JournalDegraded {
		t.Fatalf("envelope of report 2: %+v, want JournalDegraded", env)
	}
	if h := healthz(); h.Status != "degraded" || h.Journal == nil || h.Journal.UnjournaledFrames != 3 {
		t.Fatalf("healthz %+v journal %+v, want degraded with 3 unjournaled", h, h.Journal)
	}

	// Degraded: appends are absorbed and counted, reports keep flowing, and
	// the log said so once.
	feed(3)
	if reps, _ := n.Wake(); !reflect.DeepEqual(describeAll(reps), []string{"3"}) {
		t.Fatalf("degraded wake reported %v", describeAll(reps))
	}
	if s.UnjournaledFrames.Load() != 6 || s.FramesAppended.Load() != 6 {
		t.Fatalf("while degraded: %s, want 6 unjournaled (the batch and three absorbed)", journalBooks(n.Journal))
	}
	if got := strings.Count(logs.String(), "journal DEGRADED"); got != 1 {
		t.Fatalf("%d DEGRADED lines, want one:\n%s", got, logs.String())
	}

	// Re-arm: durable again, and said so once.
	if !n.Journal.TryRearm() {
		t.Fatal("re-arm failed with no fault armed")
	}
	feed(4)
	if reps, _ := n.Wake(); !reflect.DeepEqual(describeAll(reps), []string{"4"}) {
		t.Fatalf("re-armed wake reported %v", describeAll(reps))
	}
	if env := up.envelopes[len(up.envelopes)-1]; env.Report.Epoch != 4 || env.JournalDegraded {
		t.Fatalf("envelope of report 4: %+v, want a healthy journal", env)
	}
	if n.Journal.Degraded() || s.UnjournaledFrames.Load() != 6 || s.FramesAppended.Load() != 9 || s.UnsyncedFrames.Load() != 0 {
		t.Fatalf("after the re-arm: %s", journalBooks(n.Journal))
	}
	if got := strings.Count(logs.String(), "journal re-armed"); got != 1 {
		t.Fatalf("%d re-armed lines, want one:\n%s", got, logs.String())
	}
	if h := healthz(); h.Status != "ok" {
		t.Fatalf("healthz status %q after the re-arm", h.Status)
	}
}
