package experiments

import (
	"fmt"
	"math/rand"

	"dcstream/internal/unaligned"
)

// Table1Params sizes the core-finder evaluation (Table I): for each content
// length g and pattern size n1, Monte-Carlo the three-step greedy core
// finder on planted graphs and report the average recovered-core size plus
// the per-vertex false negative and false positive rates.
type Table1Params struct {
	Seed   uint64
	Model  unaligned.Model
	CoreP1 float64 // the paper's higher p1' (0.8e-4) for the core graph
	// Cells lists the (g, n1) points to evaluate; the paper's Table I uses
	// {100,110,120} × three n1 tiers.
	Cells  []Table1Cell
	Trials int
	// BetaFraction and D parameterize the detector: Beta = n1·BetaFraction.
	BetaFraction float64
	D            int
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial); results are identical at every setting.
	Workers int
}

// Table1Cell names one (g, n1) evaluation point.
type Table1Cell struct{ G, N1 int }

// Table1ParamsFor returns the experiment sizing for a scale.
func Table1ParamsFor(seed uint64, s Scale) Table1Params {
	p := Table1Params{
		Seed:         seed,
		Model:        unaligned.Model{N: 102400, ArrayBits: 1024, RowWeight: 307},
		CoreP1:       0.8e-4,
		BetaFraction: 0.5,
		D:            3,
	}
	switch s {
	case ScaleTest:
		p.Model.N = 20000
		p.Cells = []Table1Cell{{100, 125}}
		p.Trials = 3
	case ScalePaper:
		p.Cells = []Table1Cell{
			{100, 125}, {100, 144}, {100, 165},
			{110, 67}, {110, 77}, {110, 89},
			{120, 44}, {120, 51}, {120, 57},
		}
		p.Trials = 20
	default:
		p.Cells = []Table1Cell{
			{100, 125}, {100, 165},
			{110, 77},
			{120, 44}, {120, 57},
		}
		p.Trials = 8
	}
	return p
}

// Table1Row is one evaluated cell.
type Table1Row struct {
	G, N1 int
	// AvgCoreSize is the mean number of vertices the detector returned.
	AvgCoreSize float64
	// AvgTrueInCore is the mean number of returned vertices that genuinely
	// carry the content.
	AvgTrueInCore float64
	// FalseNegative is the mean fraction of pattern vertices missed.
	FalseNegative float64
	// FalsePositive is the mean fraction of returned vertices that are not
	// pattern vertices.
	FalsePositive float64
}

// Table1Result aggregates the grid.
type Table1Result struct {
	Params Table1Params
	Rows   []Table1Row
}

func table1(seed uint64, s Scale, workers int) (Result, error) {
	p := Table1ParamsFor(seed, s)
	p.Workers = workers
	return RunTable1(p)
}

// RunTable1 executes the experiment.
func RunTable1(p Table1Params) (*Table1Result, error) {
	if err := p.Model.Validate(); err != nil {
		return nil, err
	}
	p.Model = p.Model.WithDefaults()
	if p.Trials <= 0 {
		return nil, fmt.Errorf("experiments: Table1 needs positive trials")
	}
	pstar := unaligned.PStarForEdgeProbability(p.CoreP1, p.Model.RowPairs)
	res := &Table1Result{Params: p}
	for cellIdx, cell := range p.Cells {
		_, p2 := p.Model.EdgeProbabilities(pstar, cell.G)
		beta := int(p.BetaFraction * float64(cell.N1))
		if beta < 4 {
			beta = 4
		}
		type trialOut struct{ size, tp, fn, fp float64 }
		outs := make([]trialOut, p.Trials)
		err := forEachTrial(p.Seed, uint64(cellIdx), p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
			g, pattern := p.Model.SamplePlanted(rng, p.CoreP1, p2, cell.N1)
			found, err := unaligned.FindPattern(g, unaligned.PatternConfig{Beta: beta, D: p.D})
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
			outs[t].size = float64(len(found))
			outs[t].tp = float64(tp)
			outs[t].fn = 1 - float64(tp)/float64(cell.N1)
			if len(found) > 0 {
				outs[t].fp = float64(len(found)-tp) / float64(len(found))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var sumSize, sumTrue, sumFN, sumFP float64
		for _, o := range outs {
			sumSize += o.size
			sumTrue += o.tp
			sumFN += o.fn
			sumFP += o.fp
		}
		n := float64(p.Trials)
		res.Rows = append(res.Rows, Table1Row{
			G: cell.G, N1: cell.N1,
			AvgCoreSize:   sumSize / n,
			AvgTrueInCore: sumTrue / n,
			FalseNegative: sumFN / n,
			FalsePositive: sumFP / n,
		})
	}
	return res, nil
}

// Table renders the grid in the paper's Table I layout.
func (r *Table1Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			d(row.G), d(row.N1), f1(row.AvgCoreSize), f1(row.AvgTrueInCore),
			f3(row.FalseNegative), f3(row.FalsePositive),
		}
	}
	title := fmt.Sprintf(
		"Table I — greedy core finder (n=%d, p1'=%.2g, beta=%.2f·n1, d=%d, %d trials; paper: g=100,n1=125 → core 65.3, FN 0.485, FP 0.014)",
		r.Params.Model.N, r.Params.CoreP1, r.Params.BetaFraction, r.Params.D, r.Params.Trials)
	return table(title,
		[]string{"g", "n1", "avg core", "avg true", "false neg", "false pos"}, rows)
}
