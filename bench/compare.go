//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readSet(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []setRun
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{} // workload -> metric -> values
	for _, r := range set {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the driver that accepts or rejects a change computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	at := func(i int) float64 { // i-th of the 3 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareSets prints one row per (end-to-end metric, workload): the medians
// of set a (the parent) and set b (the change), how much b is worse, the
// wider of the two run-to-run spreads, and a verdict against the metric's
// bound in BENCHMARK.json. A spread wider than the bound cannot resolve a
// difference of the bound's size, so the row reads unresolved unless every
// run of one set beats every run of the other. It is an error if any row is
// worse.
func compareSets(w io.Writer, bf *benchmarkFile, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-16s %13s %13s %8s %8s %6s  %s\n", "metric", "workload", "a median", "b median", "worse", "spread", "bound", "verdict")
	worse := 0
	for _, def := range bf.EndToEnd {
		for _, wl := range bf.Workloads {
			va, vb := a[wl.Name][def.Name], b[wl.Name][def.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-18s %-16s %13s %13s %8s %8s %6.2f  %s\n", def.Name, wl.Name, "-", "-", "-", "-", def.Bound, "unresolved (fewer than two runs)")
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			// sign turns "b is worse" into a positive number for both
			// directions of better.
			sign := 1.0
			if def.Better == "higher" {
				sign = -1
			}
			delta := sign * (mb - ma) / ma
			spread := max((q3a-q1a)/ma, (q3b-q1b)/mb)
			sort.Float64s(va)
			sort.Float64s(vb)
			minA, maxA, minB, maxB := va[0], va[len(va)-1], vb[0], vb[len(vb)-1]
			allBetter, allWorse := maxB < minA, minB > maxA
			if def.Better == "higher" {
				allBetter, allWorse = allWorse, allBetter
			}
			verdict := "within"
			switch {
			case spread > def.Bound && allBetter:
				verdict = "better"
			case spread > def.Bound && allWorse:
				verdict = "worse"
			case spread > def.Bound:
				verdict = "unresolved"
			case delta > def.Bound:
				verdict = "worse"
			case delta < -def.Bound:
				verdict = "better"
			}
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-16s %13.4f %13.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				def.Name, wl.Name, ma, mb, 100*delta, 100*spread, 100*def.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric/workload pairs are worse than the bound allows", worse)
	}
	return nil
}
