//go:build linux

package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// leftovers lists what a finished run must not leave behind: scratch
// directories (each holds a journal, and a daemon's holds its FIFO) and dcsd
// children of this process, whose sockets die with them.
func leftovers(t *testing.T, root string) []string {
	t.Helper()
	var left []string
	for _, pat := range []string{"run-*", "replica-*", "journal-*"} {
		dirs, err := filepath.Glob(filepath.Join(outDir(root), pat))
		if err != nil {
			t.Fatal(err)
		}
		left = append(left, dirs...)
	}
	procs, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	self := strconv.Itoa(os.Getpid())
	for _, p := range procs {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // exited while we looked
		}
		// "pid (comm) state ppid ..."
		open, close := bytes.IndexByte(b, '('), bytes.LastIndexByte(b, ')')
		if open < 0 || close < open {
			continue
		}
		f := strings.Fields(string(b[close+1:]))
		if string(b[open+1:close]) == "dcsd" && len(f) > 1 && f[1] == self && f[0] != "Z" {
			left = append(left, "process "+p)
		}
	}
	return left
}

// TestSmoke runs every workload once at the smoke scale, traced, which also
// yields the end-to-end numbers: every declared metric must come out with its
// unit, the ledger must balance and every verdict match (a run that fails
// either returns an error), and nothing may be left behind.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	t.Cleanup(func() {
		if left := leftovers(t, root); len(left) > 0 {
			t.Errorf("left behind: %v", left)
		}
	})
	log := io.Discard
	if testing.Verbose() {
		log = os.Stderr
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, bf.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			var both tracedOutcome
			var err error
			if w.isDaemon() {
				both, err = tracedDaemon(w, 1, smokeSizes(true), bf.PerLayer, log)
			} else {
				both, err = tracedCollector(1, smokeSizes(true), bf.PerLayer)
			}
			if errors.Is(err, errInvalidRun) {
				t.Skipf("this machine cannot run the generator validly right now: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []struct {
				defs []metricDef
				out  outcome
			}{{bf.EndToEnd, both.endToEnd}, {bf.PerLayer, both.perLayer}} {
				m, err := withUnits(o.defs, o.out.values)
				if err != nil {
					t.Fatal(err)
				}
				for name, v := range m {
					if v.Unit == "" {
						t.Errorf("%s has no unit", name)
					}
				}
				if o.out.failed != 0 || !o.out.correct || o.out.attempted < 1 {
					t.Errorf("attempted %d, failed %d, correct %v", o.out.attempted, o.out.failed, o.out.correct)
				}
			}
			for _, d := range bf.EndToEnd {
				if both.endToEnd.values[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, both.endToEnd.values[d.Name])
				}
			}
			if left := leftovers(t, root); len(left) > 0 {
				t.Errorf("left behind: %v", left)
			}
		})
	}
}

// TestStopKillsDaemon covers the failure path: a daemon that ignores SIGTERM
// (here: stopped, so it cannot act on it) is killed with its process group,
// and its scratch directory goes with it.
func TestStopKillsDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the SIGTERM grace period")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(root)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(bin, root, workloads[0], 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.stop)
	if err := d.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	d.stop()
	if left := leftovers(t, root); len(left) > 0 {
		t.Errorf("left behind: %v", left)
	}
}
