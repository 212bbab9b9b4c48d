package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dcstream/internal/aligned"
)

// ComplexityParams sizes the naive-vs-refined runtime comparison (§III-B's
// headline: the naive greedy is O(n² log n), the refined weight-screened
// variant O(n log n) with Theorem 2 sizing the screening). Both detectors
// run on the same planted matrices at growing column counts; the table
// shows wall time and detection success side by side.
type ComplexityParams struct {
	Seed               uint64
	Rows               int
	ColValues          []int
	PatternA, PatternB int
	Trials             int
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial). Detection results are identical at every setting; only the
	// wall-time columns vary.
	Workers int
}

// ComplexityParamsFor returns the experiment sizing for a scale.
func ComplexityParamsFor(seed uint64, s Scale) ComplexityParams {
	p := ComplexityParams{Seed: seed, Rows: 128, PatternA: 32, PatternB: 16}
	switch s {
	case ScaleTest:
		p.ColValues = []int{256, 512}
		p.Trials = 2
	case ScalePaper:
		p.ColValues = []int{512, 1024, 2048, 4096, 8192}
		p.Trials = 5
	default:
		p.ColValues = []int{512, 1024, 2048, 4096}
		p.Trials = 3
	}
	return p
}

// ComplexityRow is one column-count's measurement.
type ComplexityRow struct {
	Cols int
	// NaiveMillis and RefinedMillis are mean wall times.
	NaiveMillis, RefinedMillis float64
	// NaiveDetect and RefinedDetect are detection ratios.
	NaiveDetect, RefinedDetect float64
	// SubsetSize is the Theorem-2 prescription used by the refined run.
	SubsetSize int
}

// ComplexityResult aggregates the sweep.
type ComplexityResult struct {
	Params ComplexityParams
	Rows   []ComplexityRow
}

func complexity(seed uint64, s Scale, workers int) (Result, error) {
	p := ComplexityParamsFor(seed, s)
	p.Workers = workers
	return RunComplexity(p)
}

// RunComplexity executes the sweep.
func RunComplexity(p ComplexityParams) (*ComplexityResult, error) {
	if p.Trials <= 0 {
		return nil, fmt.Errorf("experiments: complexity needs positive trials")
	}
	res := &ComplexityResult{Params: p}
	for ci, n := range p.ColValues {
		t2, err := aligned.Theorem2(aligned.Theorem2Inputs{
			Rows: p.Rows, Cols: n, PatternA: p.PatternA, PatternB: p.PatternB,
		})
		if err != nil {
			return nil, err
		}
		subset := t2.SubsetSize
		if subset < 64 {
			subset = 64
		}
		if subset > n {
			subset = n
		}
		row := ComplexityRow{Cols: n, SubsetSize: subset}
		type trialOut struct {
			naiveTime, refinedTime time.Duration
			naiveHit, refinedHit   bool
		}
		outs := make([]trialOut, p.Trials)
		err = forEachTrial(p.Seed, uint64(ci), p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
			m := aligned.RandomMatrix(rng, p.Rows, n)
			rows, _ := m.PlantPattern(rng, p.PatternA, p.PatternB)

			naiveCfg := aligned.NaiveConfig(n)
			naiveCfg.Workers = serialDetector
			start := time.Now()
			naive, err := aligned.Detect(m, naiveCfg)
			outs[t].naiveTime = time.Since(start)
			if err != nil {
				return err
			}
			outs[t].naiveHit = naive.Found && patternRecovered(naive.Rows, rows)

			refinedCfg := aligned.RefinedConfig(subset)
			refinedCfg.Workers = serialDetector
			start = time.Now()
			refined, err := aligned.Detect(m, refinedCfg)
			outs[t].refinedTime = time.Since(start)
			if err != nil {
				return err
			}
			outs[t].refinedHit = refined.Found && patternRecovered(refined.Rows, rows)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var naiveTime, refinedTime time.Duration
		var naiveHits, refinedHits int
		for _, o := range outs {
			naiveTime += o.naiveTime
			refinedTime += o.refinedTime
			if o.naiveHit {
				naiveHits++
			}
			if o.refinedHit {
				refinedHits++
			}
		}
		trials := float64(p.Trials)
		row.NaiveMillis = float64(naiveTime.Microseconds()) / trials / 1000
		row.RefinedMillis = float64(refinedTime.Microseconds()) / trials / 1000
		row.NaiveDetect = float64(naiveHits) / trials
		row.RefinedDetect = float64(refinedHits) / trials
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the sweep.
func (r *ComplexityResult) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		speedup := "-"
		if row.RefinedMillis > 0 {
			speedup = f1(row.NaiveMillis / row.RefinedMillis)
		}
		rows[i] = []string{
			d(row.Cols), f1(row.NaiveMillis), f3(row.NaiveDetect),
			d(row.SubsetSize), f1(row.RefinedMillis), f3(row.RefinedDetect), speedup,
		}
	}
	title := fmt.Sprintf(
		"Complexity — naive O(n² log n) vs refined O(n log n) detector (m=%d, pattern %dx%d, %d trials; refined n' from Theorem 2)",
		r.Params.Rows, r.Params.PatternA, r.Params.PatternB, r.Params.Trials)
	return table(title,
		[]string{"n cols", "naive ms", "naive det", "n'", "refined ms", "refined det", "speedup"}, rows)
}
