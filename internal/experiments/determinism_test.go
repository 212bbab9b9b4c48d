package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// workerExempt lists the registry entries TestDriversWorkerIndependent does
// not run, each with its reason; every other entry of All is a case, so a new
// experiment cannot skip the worker-independence contract silently.
var workerExempt = map[string]string{
	"fig12":  "closed-form, no trials",
	"table2": "closed-form, no trials",
	"shards": "wall-clock rows",
}

// zeroWallClock zeroes the wall-time fields of the results that carry them;
// everything else in a result must match exactly across worker counts.
var zeroWallClock = map[string]func(Result){
	"complexity": func(r Result) {
		rows := r.(*ComplexityResult).Rows
		for i := range rows {
			rows[i].NaiveMillis, rows[i].RefinedMillis = 0, 0
		}
	},
	"ablation-hopefuls": func(r Result) {
		rows := r.(*AblationHopefulsResult).Rows
		for i := range rows {
			rows[i].MeanMillis = 0
		}
	},
}

// TestDriversWorkerIndependent pins the determinism contract of the trial
// runner: every seeded driver must return bit-identical results at any
// Workers setting, because per-trial rngs are sub-seeded by (seed, stream,
// trial) rather than by consumption order. Wall-clock fields and the Workers
// knob itself are zeroed before comparison; everything else must match
// exactly. Run under -race this also exercises the strided trial fan-out.
func TestDriversWorkerIndependent(t *testing.T) {
	const seed = 11
	for _, e := range All {
		if workerExempt[e.Name] != "" {
			continue
		}
		run := func(workers int) (Result, error) {
			r, err := e.Run(seed, ScaleTest, workers)
			if err != nil {
				return nil, err
			}
			// Every driver with a workers knob echoes it in Params.Workers
			// (one without belongs in workerExempt); it is the knob under
			// test, not an output.
			reflect.ValueOf(r).Elem().FieldByName("Params").FieldByName("Workers").SetInt(0)
			if zero := zeroWallClock[e.Name]; zero != nil {
				zero(r)
			}
			return r, nil
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			serial, err := run(1)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			parallel, err := run(3)
			if err != nil {
				t.Fatalf("workers=3: %v", err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("result depends on worker count:\nworkers=1: %+v\nworkers=3: %+v", serial, parallel)
			}
		})
	}
}

// TestRegistry checks the one table dcsbench, BenchmarkExperiments and the
// test above iterate: well-formed unique names, every entry runs at ScaleTest
// and renders a table (the only `go test` run of shards, whose in-run check
// verifies every cluster width's merged verdicts against an un-sharded
// center), and the side tables above name only entries that exist.
func TestRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, e := range All {
		if e.Name == "" || e.Name == "all" || e.Name != strings.ToLower(e.Name) || strings.ContainsAny(e.Name, ", ") {
			t.Errorf("name %q: want non-empty, lower-case, no comma or space, and not the reserved \"all\"", e.Name)
		}
		if names[e.Name] {
			t.Errorf("name %q registered twice", e.Name)
		}
		names[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(1, ScaleTest, 0)
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(res.Table()) == "" {
				t.Fatal("empty table")
			}
		})
	}
	for name, reason := range workerExempt {
		if !names[name] || reason == "" {
			t.Errorf("workerExempt[%q] = %q: want a registered name and a reason", name, reason)
		}
	}
	for name := range zeroWallClock {
		if !names[name] || workerExempt[name] != "" {
			t.Errorf("zeroWallClock[%q]: want a registered, non-exempt name", name)
		}
	}
}
