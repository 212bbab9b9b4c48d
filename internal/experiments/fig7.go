package experiments

import (
	"fmt"

	"dcstream/internal/aligned"
	"dcstream/internal/stats"
)

// Fig7Params sizes the weight-loss curve experiment (Figure 7): plant an
// a×b pattern in a virtual rows×cols matrix, run the refined detector over
// the heaviest SubsetSize columns with a full trace, and record where the
// second exponential dive begins.
type Fig7Params struct {
	Seed                 uint64
	Rows, Cols           int
	SubsetSize, Hopefuls int
	PatternA, PatternB   int
	MaxIterations        int
	// Workers parallelizes the detector's level scan (0 = GOMAXPROCS,
	// negative = serial); the trace is identical at every setting.
	Workers int
}

// Fig7TestParams shrinks the instance for unit tests.
func Fig7TestParams(seed uint64) Fig7Params {
	return Fig7Params{Seed: seed, Rows: 200, Cols: 1 << 18, SubsetSize: 512,
		Hopefuls: 256, PatternA: 40, PatternB: 25, MaxIterations: 24}
}

// Fig7DefaultParams keeps the paper's matrix and pattern but caps the
// hopeful list so a single core finishes in seconds.
func Fig7DefaultParams(seed uint64) Fig7Params {
	return Fig7Params{Seed: seed, Rows: 1000, Cols: 4 << 20, SubsetSize: 2000,
		Hopefuls: 512, PatternA: 100, PatternB: 30, MaxIterations: 28}
}

// Fig7PaperParams is the paper's instance: 1000×4M, pattern 100×30, S₁ of
// 4000 columns (the paper's Figure 7 plots exactly this run; ≈15 pattern
// columns survive screening).
func Fig7PaperParams(seed uint64) Fig7Params {
	return Fig7Params{Seed: seed, Rows: 1000, Cols: 4 << 20, SubsetSize: 4000,
		Hopefuls: 4000, PatternA: 100, PatternB: 30, MaxIterations: 28}
}

// Fig7ParamsFor returns the experiment sizing for a scale.
func Fig7ParamsFor(seed uint64, s Scale) Fig7Params {
	switch s {
	case ScaleTest:
		return Fig7TestParams(seed)
	case ScalePaper:
		return Fig7PaperParams(seed)
	default:
		return Fig7DefaultParams(seed)
	}
}

// Fig7Result is the measured weight-loss curve.
type Fig7Result struct {
	Params Fig7Params
	// Trace[i] is the weight of the heaviest (i+1)-product.
	Trace []int
	// PatternColsInS1 is l, the number of pattern columns that survived
	// screening; the dive should start right after l iterations.
	PatternColsInS1 int
	// DetectedIterations is where the detector concluded the plateau ends.
	DetectedIterations int
	// Found reports detection success.
	Found bool
}

func fig7(seed uint64, s Scale, workers int) (Result, error) {
	p := Fig7ParamsFor(seed, s)
	p.Workers = workers
	return RunFig7(p)
}

// RunFig7 executes the experiment.
func RunFig7(p Fig7Params) (*Fig7Result, error) {
	rng := stats.NewRand(p.Seed)
	vs, err := aligned.SampleHeavyColumns(rng, aligned.VirtualConfig{
		Rows: p.Rows, Cols: p.Cols, SubsetSize: p.SubsetSize,
		PatternRows: p.PatternA, PatternCols: p.PatternB,
	})
	if err != nil {
		return nil, err
	}
	cfg := aligned.RefinedConfig(p.SubsetSize)
	cfg.Hopefuls = p.Hopefuls
	cfg.MaxIterations = p.MaxIterations
	cfg.FullTrace = true
	cfg.Workers = p.Workers
	det, err := aligned.Detect(vs.Matrix, cfg)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{
		Params:             p,
		Trace:              det.WeightTrace,
		PatternColsInS1:    len(vs.PatternColsInS1),
		DetectedIterations: det.Iterations,
		Found:              det.Found,
	}, nil
}

// Table renders the weight-loss series.
func (r *Fig7Result) Table() string {
	rows := make([][]string, len(r.Trace))
	for i, w := range r.Trace {
		mark := ""
		if i+1 == r.DetectedIterations {
			mark = "<- plateau end (detector stops here)"
		}
		if i+1 == r.PatternColsInS1 {
			mark += " [l = pattern columns in S1]"
		}
		rows[i] = []string{d(i + 1), d(w), mark}
	}
	title := fmt.Sprintf(
		"Figure 7 — weight of heaviest b'-product vs iteration (matrix %dx%d, pattern %dx%d, n'=%d, found=%v)",
		r.Params.Rows, r.Params.Cols, r.Params.PatternA, r.Params.PatternB,
		r.Params.SubsetSize, r.Found)
	return table(title, []string{"iteration b'", "weight", ""}, rows)
}
