//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is BENCHMARK.json at the repository root: the one place that
// names the workloads and metrics, their units, and the bound by which each
// end-to-end metric may worsen.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// withUnits turns measured values into the reported metrics: exactly the
// declared names, each with its declared unit. A value measured but not
// declared, or declared but not measured, is a bug in the benchmark.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// printMetrics writes the metrics by name and unit, for people.
func printMetrics(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
