// Command dcsbench regenerates the paper's tables and figures, plus the
// shard-tier scaling table (BENCH_shards.json). It does not measure the
// system: `go run ./bench` drives the real dcsd end to end for that.
//
//	dcsbench -exp all -scale default
//	dcsbench -exp fig13,table2 -scale paper -seed 7
//	dcsbench -exp complexity,fig13 -scale test -json -label ci > BENCH_ci.json
//
// The experiments are the entries of experiments.All; `dcsbench -h` lists
// them. Scales: test (seconds), default (tens of seconds), paper (minutes).
//
// With -json the human tables are suppressed and a machine-readable
// benchmark record (label, environment, per-experiment wall time) is
// written to stdout, suitable for committing as a tracked baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"dcstream/internal/experiments"
)

// benchRecord is the -json document. Millis values are wall time and thus
// environment-dependent; everything identifying the environment rides along
// so baselines from different machines are never compared blindly.
type benchRecord struct {
	Label       string       `json:"label"`
	Scale       string       `json:"scale"`
	Seed        uint64       `json:"seed"`
	Workers     int          `json:"workers"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	Experiments []benchEntry `json:"experiments"`
}

type benchEntry struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
	// Table is the experiment's rendered result, line-split for readable
	// JSON. Committed baselines stay self-describing: a throughput record
	// carries its rates, not just its wall time.
	Table []string `json:"table,omitempty"`
}

func main() {
	names := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		names[i] = e.Name
	}
	valid := strings.Join(names, ", ")
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment list, or 'all'; experiments: "+valid)
		scaleFlag   = flag.String("scale", "default", "test | default | paper")
		seedFlag    = flag.Uint64("seed", 42, "random seed")
		workersFlag = flag.Int("workers", 0, "trial/scan goroutines per experiment (0 = GOMAXPROCS, negative = serial)")
		jsonFlag    = flag.Bool("json", false, "emit a machine-readable timing record instead of tables")
		labelFlag   = flag.String("label", "local", "label stored in the -json record")
	)
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	selected := experiments.All
	if *expFlag != "all" {
		want := map[string]bool{}
		for _, name := range strings.Split(*expFlag, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if !slices.Contains(names, name) {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s, all)\n", name, valid)
				os.Exit(2)
			}
			want[name] = true
		}
		selected = nil
		for _, e := range experiments.All {
			if want[e.Name] {
				selected = append(selected, e)
			}
		}
	}

	record := benchRecord{
		Label:      *labelFlag,
		Scale:      scale.String(),
		Seed:       *seedFlag,
		Workers:    *workersFlag,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(*seedFlag, scale, *workersFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		entry := benchEntry{Name: e.Name, Millis: float64(elapsed.Microseconds()) / 1000}
		if *jsonFlag {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, elapsed.Round(time.Millisecond))
			entry.Table = strings.Split(strings.TrimRight(res.Table(), "\n"), "\n")
		} else {
			fmt.Println(res.Table())
			fmt.Printf("(%s finished in %v at scale %s)\n\n", e.Name, elapsed.Round(time.Millisecond), scale)
		}
		record.Experiments = append(record.Experiments, entry)
	}
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(record); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
