package experiments

import (
	"fmt"
	"math/rand"

	"dcstream/internal/unaligned"
)

// Table3Params sizes the detectable-threshold search (Table III): for each
// content length g, Monte-Carlo the greedy core finder over increasing
// pattern sizes n1 and report the smallest n1 whose average recall reaches
// the target, plus the average core size at that point. The detectable
// threshold must always dominate Table II's non-natural bound.
type Table3Params struct {
	Seed         uint64
	Model        unaligned.Model
	CoreP1       float64
	GValues      []int
	Trials       int
	TargetRecall float64
	BetaFraction float64
	D            int
	MaxN1        int
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial); results are identical at every setting. Trial streams are
	// keyed by (g, n1), so the adaptive search visits identical samples in
	// any order.
	Workers int
}

// Table3ParamsFor returns the experiment sizing for a scale.
func Table3ParamsFor(seed uint64, s Scale) Table3Params {
	p := Table3Params{
		Seed:         seed,
		Model:        unaligned.Model{N: 102400, ArrayBits: 1024, RowWeight: 307},
		CoreP1:       0.8e-4,
		TargetRecall: 0.5,
		BetaFraction: 0.5,
		D:            3,
		MaxN1:        400,
	}
	switch s {
	case ScaleTest:
		p.Model.N = 20000
		p.GValues = []int{125}
		p.Trials = 3
		p.MaxN1 = 120
	case ScalePaper:
		p.GValues = []int{100, 125, 150}
		p.Trials = 10
	default:
		p.GValues = []int{100, 125, 150}
		p.Trials = 4
	}
	return p
}

// Table3Row is one g's search outcome.
type Table3Row struct {
	G int
	// DetectableN1 is the smallest pattern size reaching the recall target
	// (-1 if none up to MaxN1).
	DetectableN1 int
	// AvgCoreSize is the mean detector output size at that point.
	AvgCoreSize float64
	// AvgRecall is the measured recall at that point.
	AvgRecall float64
	// NonNaturalM is Table II's analytic lower bound for comparison.
	NonNaturalM int
}

// Table3Result aggregates the searches.
type Table3Result struct {
	Params Table3Params
	Rows   []Table3Row
}

func table3(seed uint64, s Scale, workers int) (Result, error) {
	p := Table3ParamsFor(seed, s)
	p.Workers = workers
	return RunTable3(p)
}

// RunTable3 executes the experiment.
func RunTable3(p Table3Params) (*Table3Result, error) {
	if err := p.Model.Validate(); err != nil {
		return nil, err
	}
	p.Model = p.Model.WithDefaults()
	pstar := unaligned.PStarForEdgeProbability(p.CoreP1, p.Model.RowPairs)
	res := &Table3Result{Params: p}
	for gi, g := range p.GValues {
		_, p2 := p.Model.EdgeProbabilities(pstar, g)
		row := Table3Row{G: g, DetectableN1: -1}

		evaluate := func(n1 int) (recall, coreSize float64, err error) {
			beta := int(p.BetaFraction * float64(n1))
			if beta < 4 {
				beta = 4
			}
			type trialOut struct{ recall, size float64 }
			outs := make([]trialOut, p.Trials)
			err = forEachTrial(p.Seed, uint64(gi)<<32|uint64(n1), p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
				gr, pattern := p.Model.SamplePlanted(rng, p.CoreP1, p2, n1)
				found, err := unaligned.FindPattern(gr, unaligned.PatternConfig{Beta: beta, D: p.D})
				if err != nil {
					return err
				}
				inPattern := make(map[int]bool, len(pattern))
				for _, v := range pattern {
					inPattern[v] = true
				}
				tp := 0
				for _, v := range found {
					if inPattern[v] {
						tp++
					}
				}
				outs[t] = trialOut{recall: float64(tp) / float64(n1), size: float64(len(found))}
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
			var sumRecall, sumSize float64
			for _, o := range outs {
				sumRecall += o.recall
				sumSize += o.size
			}
			n := float64(p.Trials)
			return sumRecall / n, sumSize / n, nil
		}

		// Geometric-then-linear search keeps trial counts modest.
		lo, hi := 0, 8
		for hi <= p.MaxN1 {
			recall, size, err := evaluate(hi)
			if err != nil {
				return nil, err
			}
			if recall >= p.TargetRecall {
				row.AvgRecall, row.AvgCoreSize = recall, size
				row.DetectableN1 = hi
				break
			}
			lo, hi = hi, hi*2
		}
		if row.DetectableN1 > 0 && row.DetectableN1 > lo+1 {
			// Refine within (lo, hi] by bisection on the MC estimate.
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				recall, size, err := evaluate(mid)
				if err != nil {
					return nil, err
				}
				if recall >= p.TargetRecall {
					hi = mid
					row.AvgRecall, row.AvgCoreSize = recall, size
				} else {
					lo = mid
				}
			}
			row.DetectableN1 = hi
		}
		nn, err := unaligned.MinCluster(unaligned.ClusterSearchConfig{Model: p.Model, MaxM: p.MaxN1 * 2}, g)
		if err != nil {
			return nil, err
		}
		row.NonNaturalM = nn.M
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the searches in the paper's Table III layout.
func (r *Table3Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			d(row.G), d(row.DetectableN1), f1(row.AvgCoreSize), f3(row.AvgRecall), d(row.NonNaturalM),
		}
	}
	title := fmt.Sprintf(
		"Table III — detectable threshold of the greedy core finder (n=%d, p1'=%.2g, recall target %.0f%%, %d trials/point; paper: g=100→m=150 core 56, g=125→80/50, g=150→50/30)",
		r.Params.Model.N, r.Params.CoreP1, 100*r.Params.TargetRecall, r.Params.Trials)
	return table(title,
		[]string{"g", "detectable n1", "avg core", "avg recall", "non-natural m (Table II)"}, rows)
}
