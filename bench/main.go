//go:build linux

// Command bench is the repository's end-to-end benchmark: it builds the real
// cmd/dcsd, drives it over loopback from a seeded generator, checks every
// report against a reference center and the planted truth, and prints the
// metrics BENCHMARK.json declares. See README.md in this directory.
//
//	go run ./bench                                   all workloads, end to end and traced
//	go run ./bench --workload mixed-udp --seed 7 --seconds 26 --trace 0
//	go run ./bench -runs 10 -out a.json              a set of end-to-end runs
//	go run ./bench -compare a.json b.json            two sets against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Exit codes: 1 a run failed its checks, 2 bad usage, 3 the run is invalid
// (the generator, not the daemon, was the limit).
func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty = all four, end to end and traced)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 0, "seconds one run measures (0 = run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics from the real daemon, 1 = per-layer metrics with the traced replica")
		scale   = flag.String("scale", "", `"smoke" runs a fixed small size`)
		runs    = flag.Int("runs", 0, "with -out: end-to-end runs per workload, seeds seed..seed+runs-1")
		outPath = flag.String("out", "", "with -runs: file the set of runs is written to")
		compare = flag.Bool("compare", false, "compare two sets of runs: bench -compare a.json b.json")
	)
	flag.BoolVar(&keepScratch, "keep", false, "keep the scratch directories (daemon log, journal) under bench/out")
	flag.Parse()
	err := func() error {
		root, err := findRoot()
		if err != nil {
			return err
		}
		bf, err := loadBenchmarkFile(root)
		if err != nil {
			return err
		}
		if *compare {
			if flag.NArg() != 2 {
				return usageError("-compare takes two files")
			}
			return compareSets(os.Stdout, bf, flag.Arg(0), flag.Arg(1))
		}
		if *seconds == 0 {
			*seconds = bf.RunSeconds
		}
		b := &bench{root: root, bf: bf, seconds: *seconds, smoke: *scale == "smoke", log: os.Stderr}
		switch {
		case *runs > 0:
			if *outPath == "" {
				return usageError("-runs needs -out")
			}
			return b.runSet(*seed, *runs, *outPath)
		case *name == "":
			return b.runAll(*seed)
		}
		w, err := findWorkload(*name)
		if err != nil {
			return usageError(err.Error())
		}
		res, err := b.run(w, *seed, *trace == 1)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		var ue usageError
		switch {
		case errors.As(err, &ue):
			os.Exit(2)
		case errors.Is(err, errInvalidRun):
			os.Exit(3)
		}
		os.Exit(1)
	}
}

type usageError string

func (e usageError) Error() string { return string(e) }

// bench is one invocation's settings.
type bench struct {
	root    string
	bf      *benchmarkFile
	seconds int
	smoke   bool
	log     io.Writer
}

// run measures one workload once and returns the result the contract's last
// line carries. Any failed operation, unbalanced ledger or verdict mismatch
// is an error: no result is printed for such a run.
func (b *bench) run(w workload, seed uint64, traced bool) (result, error) {
	sz := sizesFor(b.seconds, traced)
	if b.smoke {
		sz = smokeSizes(traced)
	}
	var out outcome
	var err error
	defs := b.bf.EndToEnd
	switch {
	case !traced && w.isDaemon():
		var run *daemonRun
		if run, err = runDaemon(w, seed, sz, false, b.log); err == nil {
			out = run.endToEnd(w)
		}
	case !traced:
		var run *collectorRun
		if run, err = runCollector(seed, sz, false); err == nil {
			if out = run.endToEnd(); run.why != "" {
				err = fmt.Errorf("collector: %s", run.why)
			}
		}
	default:
		defs = b.bf.PerLayer
		var both tracedOutcome
		if w.isDaemon() {
			both, err = tracedDaemon(w, seed, sz, defs, b.log)
		} else {
			both, err = tracedCollector(seed, sz, defs)
		}
		if out = both.perLayer; err == nil {
			err = b.writeTrace(w, seed, out, both.spans)
		}
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if out.failed > 0 {
		return result{}, fmt.Errorf("%s: %d of %d operations failed", w.name, out.failed, out.attempted)
	}
	m, err := withUnits(defs, out.values)
	if err != nil {
		return result{}, err
	}
	printMetrics(b.log, fmt.Sprintf("%s, seed %d:", w.name, seed), m)
	return result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: m}, nil
}

func (b *bench) writeTrace(w workload, seed uint64, out outcome, spans []span) error {
	m, err := withUnits(b.bf.PerLayer, out.values)
	if err != nil {
		return err
	}
	path, err := writeTrace(b.root, traceFile{Workload: w.name, Seed: seed, Environment: environment(), Metrics: m, Spans: spans})
	if err != nil {
		return err
	}
	fmt.Fprintf(b.log, "trace written to %s (%d spans)\n", path, len(spans))
	return nil
}

// runAll is the one command: every workload, end to end and traced.
func (b *bench) runAll(seed uint64) error {
	env, _ := json.Marshal(environment())
	fmt.Fprintf(b.log, "environment: %s\n", env)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if _, err := b.run(w, seed, traced); err != nil {
				return err
			}
		}
	}
	return nil
}

// setRun is one run of a set written by -runs and read by -compare.
type setRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   result `json:"result"`
}

// runSet writes the runs that passed their checks and fails if any did not,
// so one bad run costs that run, not the set.
func (b *bench) runSet(seed uint64, runs int, path string) error {
	var set []setRun
	var failed []error
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			res, err := b.run(w, seed+uint64(i), false)
			if err != nil {
				fmt.Fprintln(b.log, "bench:", err)
				failed = append(failed, err)
				continue
			}
			set = append(set, setRun{Workload: w.name, Seed: seed + uint64(i), Result: res})
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	return errors.Join(failed...)
}
