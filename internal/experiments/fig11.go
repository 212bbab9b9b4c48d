package experiments

import (
	"fmt"
	"math/rand"

	"dcstream/internal/aligned"
)

// Fig11Params sizes the detection-ratio experiment (Figure 11): for each
// (a, b) on a grid, Monte-Carlo the refined detector on virtual matrices
// with a planted a×b pattern and report the empirical detection probability
// alongside the analytic screening-survival prediction.
type Fig11Params struct {
	Seed                 uint64
	Rows, Cols           int
	SubsetSize, Hopefuls int
	AValues              []int // x-axis: number of routers seeing the content
	BValues              []int // one curve per content length
	Trials               int
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial); results are identical at every setting.
	Workers int
}

// Fig11ParamsFor returns the experiment sizing for a scale.
func Fig11ParamsFor(seed uint64, s Scale) Fig11Params {
	switch s {
	case ScaleTest:
		return Fig11Params{Seed: seed, Rows: 1000, Cols: 4 << 20, SubsetSize: 512,
			Hopefuls: 192, AValues: []int{60, 100}, BValues: []int{30}, Trials: 3}
	case ScalePaper:
		return Fig11Params{Seed: seed, Rows: 1000, Cols: 4 << 20, SubsetSize: 4000,
			Hopefuls: 1000,
			AValues:  []int{20, 30, 40, 50, 60, 70, 80, 90, 100},
			BValues:  []int{20, 30, 40}, Trials: 100}
	default:
		return Fig11Params{Seed: seed, Rows: 1000, Cols: 4 << 20, SubsetSize: 1000,
			Hopefuls: 256,
			AValues:  []int{20, 40, 60, 80, 100},
			BValues:  []int{20, 30, 40}, Trials: 10}
	}
}

// Fig11Cell is one grid point's outcome.
type Fig11Cell struct {
	A, B int
	// Detected is the empirical detection ratio (1 - false negative).
	Detected float64
	// Predicted is the analytic screening-survival probability (§V-A.2).
	Predicted float64
}

// Fig11Result is the measured detection-ratio surface.
type Fig11Result struct {
	Params Fig11Params
	Cells  []Fig11Cell
}

func fig11(seed uint64, s Scale, workers int) (Result, error) {
	p := Fig11ParamsFor(seed, s)
	p.Workers = workers
	return RunFig11(p)
}

// RunFig11 executes the experiment.
func RunFig11(p Fig11Params) (*Fig11Result, error) {
	det := aligned.DetectableConfig{Rows: p.Rows, Cols: p.Cols, SubsetSize: p.SubsetSize}
	res := &Fig11Result{Params: p}
	for bi, b := range p.BValues {
		for ai, a := range p.AValues {
			hitSlots := make([]bool, p.Trials)
			err := forEachTrial(p.Seed, uint64(bi)<<32|uint64(ai), p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
				vs, err := aligned.SampleHeavyColumns(rng, aligned.VirtualConfig{
					Rows: p.Rows, Cols: p.Cols, SubsetSize: p.SubsetSize,
					PatternRows: a, PatternCols: b,
				})
				if err != nil {
					return err
				}
				cfg := aligned.RefinedConfig(p.SubsetSize)
				cfg.Hopefuls = p.Hopefuls
				cfg.Workers = serialDetector
				d, err := aligned.Detect(vs.Matrix, cfg)
				if err != nil {
					return err
				}
				hitSlots[t] = d.Found && patternRecovered(d.Rows, vs.PatternRowSet)
				return nil
			})
			if err != nil {
				return nil, err
			}
			hits := 0
			for _, h := range hitSlots {
				if h {
					hits++
				}
			}
			res.Cells = append(res.Cells, Fig11Cell{
				A: a, B: b,
				Detected:  float64(hits) / float64(p.Trials),
				Predicted: aligned.DetectionProbability(det, a, b),
			})
		}
	}
	return res, nil
}

// patternRecovered requires at least 80% of the detected rows to be genuine
// pattern rows — a detection that points at the wrong routers is a miss.
func patternRecovered(found, pattern []int) bool {
	if len(found) == 0 {
		return false
	}
	set := make(map[int]bool, len(pattern))
	for _, v := range pattern {
		set[v] = true
	}
	hit := 0
	for _, v := range found {
		if set[v] {
			hit++
		}
	}
	return float64(hit) >= 0.8*float64(len(found))
}

// Table renders the detection-ratio grid.
func (r *Fig11Result) Table() string {
	rows := make([][]string, len(r.Cells))
	for i, c := range r.Cells {
		rows[i] = []string{d(c.B), d(c.A), f3(c.Detected), f3(c.Predicted)}
	}
	title := fmt.Sprintf(
		"Figure 11 — detection ratio of the aligned greedy detector (matrix %dx%d, n'=%d, %d trials/point; paper: ≈0.988 at 100x30)",
		r.Params.Rows, r.Params.Cols, r.Params.SubsetSize, r.Params.Trials)
	return table(title, []string{"b (packets)", "a (routers)", "detected", "analytic"}, rows)
}
