package daemon

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dcstream/internal/center"
)

// updateGolden rewrites testdata/analyzed_w*.txt from whatever finish step the
// package holds. The files are only ever regenerated from a checkout of the
// commit being pinned (see .claude/skills/verify/SKILL.md); a change to the
// close policy or the finish step that moves them is a bug.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/analyzed_w*.txt from this tree's node")

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
			golden := filepath.Join("testdata", fmt.Sprintf("analyzed_w%d.txt", slide))
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
				t.Fatalf("ANALYZED sidecar is\n%q\nwant (%s)\n%q", got, golden, want)
			}
		})
	}
}
