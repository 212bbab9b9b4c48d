package daemon

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dcstream/internal/center"
)

// updateGolden rewrites testdata/analyzed_w*.txt, testdata/close_trace.txt
// and testdata/metrics_families.txt from whatever close policy, finish step
// and exposition the package holds. The files are only ever regenerated from
// a checkout of the commit being pinned; a change that moves one it did not
// mean to is a bug.
var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata goldens from this tree's node")

// checkGolden compares got with the golden file, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d is\n%s\nwant\n%s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// TestAnalyzedSidecarGolden pins the bytes of the journal's ANALYZED sidecar
// that a node leaves behind over six epochs of three routers, at -slide 1 and
// -slide 3: the epoch marks, the span marks and their order. Epoch 3 misses
// router 3, is held below quorum for its MaxWait ticks and closes Degraded
// before epoch 4 arrives; four ticks follow every epoch, and a drain ends the
// run.
func TestAnalyzedSidecarGolden(t *testing.T) {
	for _, slide := range []int{1, 3} {
		t.Run(fmt.Sprintf("slide=%d", slide), func(t *testing.T) {
			dir := t.TempDir()
			n := NewNode(center.Config{SubsetSize: 64, MinRouters: 3, MaxWait: 2, WindowSlide: slide, MaxEpochs: 8}, nil)
			if err := n.OpenJournal(dir); err != nil {
				t.Fatal(err)
			}
			var reps []string
			collect := func(got []center.WindowReport, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, describeAll(got)...)
			}
			for e := 1; e <= 6; e++ {
				routers := []int{1, 2, 3}
				if e == 3 {
					routers = routers[:2]
				}
				for _, m := range burst(e, routers...) {
					n.Handle(m, from)
				}
				for i := 0; i < 4; i++ {
					collect(n.Tick())
				}
			}
			collect(n.Drain())
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if want := []string{"1", "2", "3 degraded[3]", "4", "5", "6"}; !slices.Equal(reps, want) {
				t.Fatalf("reported %v, want %v", reps, want)
			}
			got, err := os.ReadFile(filepath.Join(dir, "ANALYZED"))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", fmt.Sprintf("analyzed_w%d.txt", slide)), got)
		})
	}
}

// closeTraceSeeds is how many of the seeded fleets the close trace pins: as
// many as keep testdata/close_trace.txt near 200 KB.
const closeTraceSeeds = 28

// TestCloseTraceGolden pins what the close policy does, call by call, over the
// seeded fleets (fleetRun) at W in {1, 2, 3}, MaxWait in {2, 8} and
// MinRouters in {0, 3}, on a node that wakes on completion and on one that
// only ticks. Each run is one line of testdata/close_trace.txt:
//
//	w=<W> max-wait=<M> min-routers=<Q> seed=<s> <woken|ticked>: <calls> | <ledger>
//
// A call is W (wake), T (tick) or D (drain). A call that reported is followed
// by its reports in parentheses — the epoch, "D[missing routers]" when
// Degraded, "S" when a shed tombstone — and then the Closed counters after the
// call as c<complete>s<superseded>q<quiescent>d<drain>; a call that reported
// nothing moved no counter and prints none. The ledger is the final Stats
// snapshot, counters at zero left out.
func TestCloseTraceGolden(t *testing.T) {
	var out bytes.Buffer
	for _, slide := range []int{1, 2, 3} {
		for _, maxWait := range []int{2, 8} {
			for _, minRouters := range []int{0, 3} {
				for seed := int64(1); seed <= closeTraceSeeds; seed++ {
					for _, wakes := range []bool{true, false} {
						cfg := fleetConfig()
						cfg.WindowSlide, cfg.MaxWait, cfg.MinRouters = slide, maxWait, minRouters
						side := "ticked"
						if wakes {
							side = "woken"
						}
						fmt.Fprintf(&out, "w=%d max-wait=%d min-routers=%d seed=%d %s:", slide, maxWait, minRouters, seed, side)
						n := NewNode(cfg, nil)
						fleetRun(t, seed, n, wakes, func(op byte, reps []center.WindowReport) {
							fmt.Fprintf(&out, " %c", op)
							if len(reps) == 0 {
								return
							}
							var rs []string
							for _, rep := range reps {
								r := fmt.Sprint(rep.Epoch)
								if rep.Shed {
									r += "S"
								} else if rep.Degraded {
									r += fmt.Sprintf("D%v", rep.MissingRouters)
								}
								rs = append(rs, r)
							}
							cl := &n.Center.Stats().Closed
							fmt.Fprintf(&out, "(%s)c%ds%dq%dd%d", strings.Join(rs, ","),
								cl[center.CloseComplete].Load(), cl[center.CloseSuperseded].Load(),
								cl[center.CloseQuiescent].Load(), cl[center.CloseDrain].Load())
						})
						fmt.Fprintf(&out, " | %s\n", ledger(n.Center.Stats()))
					}
				}
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "close_trace.txt"), out.Bytes())
}

// ledger prints a center's non-zero counters, but the per-rule close counts.
func ledger(s *center.Stats) string {
	var fs []string
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"ingested", s.DigestsIngested.Load()}, {"late", s.LateDigests.Load()}, {"dup", s.DuplicateDigests.Load()},
		{"replaced", s.ReplacedDigests.Load()}, {"dropped", s.DroppedDigests.Load()}, {"unknown", s.UnknownMessages.Load()},
		{"misrouted", s.MisroutedDigests.Load()}, {"shed", s.ShedDigests.Load()}, {"shed-epochs", s.ShedEpochs.Load()},
		{"rejected", s.RejectedDigests.Load()}, {"analyzed", s.EpochsAnalyzed.Load()}, {"evicted", s.EpochsEvicted.Load()},
		{"degraded", s.DegradedEpochs.Load()},
	} {
		if f.v != 0 {
			fs = append(fs, fmt.Sprintf("%s=%d", f.name, f.v))
		}
	}
	return strings.Join(fs, " ")
}
