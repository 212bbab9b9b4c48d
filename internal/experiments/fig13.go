package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"dcstream/internal/unaligned"
)

// Fig13Params sizes the Erdős–Rényi-test experiment (Figure 13): sample the
// null graph G(n, p1) and planted graphs with n1 pattern vertices, and
// compare the distributions of the largest connected component.
//
// The edge probabilities come from the exact overlap model at the operating
// array fill (RowWeight); at RowWeight≈0.3·ArrayBits the planted edge
// probability equals the paper's implied operating point p2≈0.17 (see
// EXPERIMENTS.md for why the paper's literal 50% fill does not).
type Fig13Params struct {
	Seed      uint64
	Model     unaligned.Model
	P1        float64
	G         int // content length in packets
	N1Values  []int
	Trials    int
	Threshold int // decision boundary on the largest component
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial); results are identical at every setting.
	Workers int
}

// Fig13ParamsFor returns the experiment sizing for a scale.
func Fig13ParamsFor(seed uint64, s Scale) Fig13Params {
	p := Fig13Params{
		Seed:      seed,
		Model:     unaligned.Model{N: 102400, ArrayBits: 1024, RowWeight: 307},
		P1:        0.65e-5,
		G:         100,
		N1Values:  []int{120, 130, 140},
		Threshold: 100,
	}
	switch s {
	case ScaleTest:
		p.Model.N = 20000
		p.P1 = 0.65e-5 * 102400 / 20000
		p.N1Values = []int{130}
		p.Trials = 10
		p.Threshold = 60
	case ScalePaper:
		p.Trials = 100
	default:
		p.Trials = 40
	}
	return p
}

// Fig13Series is the largest-component sample for one condition.
type Fig13Series struct {
	// N1 is the planted pattern size; 0 denotes the null hypothesis.
	N1 int
	// Components holds the sorted largest-component sizes, one per trial.
	Components []int
	// DetectRate is the fraction of trials at or above the threshold.
	DetectRate float64
}

// Fig13Result aggregates all conditions.
type Fig13Result struct {
	Params Fig13Params
	P2     float64
	Series []Fig13Series
	// FalsePositive is the null detection rate; FalseNegative maps each n1
	// to its miss rate (paper: 16.6%, 5.2%, 1.0% for 120/130/140).
	FalsePositive float64
	FalseNegative map[int]float64
}

func fig13(seed uint64, s Scale, workers int) (Result, error) {
	p := Fig13ParamsFor(seed, s)
	p.Workers = workers
	return RunFig13(p)
}

// RunFig13 executes the experiment.
func RunFig13(p Fig13Params) (*Fig13Result, error) {
	if err := p.Model.Validate(); err != nil {
		return nil, err
	}
	p.Model = p.Model.WithDefaults()
	if p.Trials <= 0 {
		return nil, fmt.Errorf("experiments: Fig13 needs positive trials")
	}
	pstar := unaligned.PStarForEdgeProbability(p.P1, p.Model.RowPairs)
	_, p2 := p.Model.EdgeProbabilities(pstar, p.G)

	res := &Fig13Result{Params: p, P2: p2, FalseNegative: map[int]float64{}}
	run := func(cond int, n1 int) (Fig13Series, error) {
		s := Fig13Series{N1: n1, Components: make([]int, p.Trials)}
		err := forEachTrial(p.Seed, uint64(cond), p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
			if n1 == 0 {
				s.Components[t] = p.Model.SampleNull(rng, p.P1).LargestComponent()
			} else {
				g, _ := p.Model.SamplePlanted(rng, p.P1, p2, n1)
				s.Components[t] = g.LargestComponent()
			}
			return nil
		})
		if err != nil {
			return s, err
		}
		hits := 0
		for _, lc := range s.Components {
			if lc >= p.Threshold {
				hits++
			}
		}
		sort.Ints(s.Components)
		s.DetectRate = float64(hits) / float64(p.Trials)
		return s, nil
	}

	null, err := run(0, 0)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, null)
	res.FalsePositive = null.DetectRate
	for i, n1 := range p.N1Values {
		s, err := run(i+1, n1)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
		res.FalseNegative[n1] = 1 - s.DetectRate
	}
	return res, nil
}

// CDF returns the empirical CDF of a series at value x.
func (s Fig13Series) CDF(x int) float64 {
	idx := sort.SearchInts(s.Components, x+1)
	return float64(idx) / float64(len(s.Components))
}

// Table renders quantiles of each condition plus the error rates.
func (r *Fig13Result) Table() string {
	var rows [][]string
	q := func(c []int, f float64) int { return c[int(f*float64(len(c)-1))] }
	for _, s := range r.Series {
		name := "null"
		errRate := fmt.Sprintf("FP=%.3f", r.FalsePositive)
		if s.N1 > 0 {
			name = fmt.Sprintf("n1=%d", s.N1)
			errRate = fmt.Sprintf("FN=%.3f", r.FalseNegative[s.N1])
		}
		rows = append(rows, []string{
			name,
			d(q(s.Components, 0)), d(q(s.Components, 0.25)), d(q(s.Components, 0.5)),
			d(q(s.Components, 0.75)), d(q(s.Components, 1)),
			f3(s.DetectRate), errRate,
		})
	}
	title := fmt.Sprintf(
		"Figure 13 — largest connected component, null vs planted (n=%d, p1=%.3g, p2=%.3f, g=%d, threshold=%d, %d trials; paper FN: 16.6/5.2/1.0%% at n1=120/130/140)",
		r.Params.Model.N, r.Params.P1, r.P2, r.Params.G, r.Params.Threshold, r.Params.Trials)
	return table(title,
		[]string{"condition", "min", "p25", "median", "p75", "max", "detect", "error"}, rows)
}
