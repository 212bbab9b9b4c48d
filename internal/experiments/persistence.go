package experiments

import (
	"fmt"
	"math/rand"

	"dcstream/internal/unaligned"
)

// PersistenceParams sizes the cross-epoch persistence experiment. The paper
// tolerates per-epoch false negatives because detection runs every second:
// "even if the pattern is missed in one second, it may be caught in the
// following seconds" (§V-B.1). This experiment quantifies that: a pattern
// sized to be *marginal* for the per-epoch ER test is monitored across
// consecutive epochs, and the cumulative detection probability is measured
// against the single-epoch rate.
type PersistenceParams struct {
	Seed      uint64
	Model     unaligned.Model
	P1        float64
	G         int
	N1        int // chosen marginal: per-epoch detection well below 1
	Threshold int
	Epochs    int
	Window    int
	MinHits   int
	Trials    int
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial); results are identical at every setting.
	Workers int
}

// PersistenceParamsFor returns the experiment sizing for a scale.
func PersistenceParamsFor(seed uint64, s Scale) PersistenceParams {
	p := PersistenceParams{
		Seed:      seed,
		Model:     unaligned.Model{N: 102400, ArrayBits: 1024, RowWeight: 307},
		P1:        0.65e-5,
		G:         100,
		N1:        34, // marginal against threshold 100 (per-epoch detect ≈ 0.4-0.5)
		Threshold: 100,
		Epochs:    10,
		Window:    10,
		MinHits:   1,
	}
	switch s {
	case ScaleTest:
		p.Model.N = 20000
		p.P1 = 0.65e-5 * 102400 / 20000
		p.Threshold = 60
		p.N1 = 24
		p.Epochs = 6
		p.Window = 6
		p.Trials = 10
	case ScalePaper:
		p.Trials = 60
	default:
		p.Trials = 25
	}
	return p
}

// PersistenceResult is the measured outcome.
type PersistenceResult struct {
	Params PersistenceParams
	// PerEpochDetect is the single-epoch detection probability.
	PerEpochDetect float64
	// CumulativeByEpoch[e] is the fraction of trials whose monitor had
	// alarmed by the end of epoch e (1-based rendering).
	CumulativeByEpoch []float64
	// MeanLatency is the mean first-alarm epoch among alarmed trials
	// (1-based); -1 if no trial alarmed.
	MeanLatency float64
}

func persistence(seed uint64, s Scale, workers int) (Result, error) {
	p := PersistenceParamsFor(seed, s)
	p.Workers = workers
	return RunPersistence(p)
}

// RunPersistence executes the experiment.
func RunPersistence(p PersistenceParams) (*PersistenceResult, error) {
	if err := p.Model.Validate(); err != nil {
		return nil, err
	}
	p.Model = p.Model.WithDefaults()
	if p.Trials <= 0 || p.Epochs <= 0 {
		return nil, fmt.Errorf("experiments: persistence needs positive trials and epochs")
	}
	pstar := unaligned.PStarForEdgeProbability(p.P1, p.Model.RowPairs)
	_, p2 := p.Model.EdgeProbabilities(pstar, p.G)

	res := &PersistenceResult{
		Params:            p,
		CumulativeByEpoch: make([]float64, p.Epochs),
	}
	type trialOut struct {
		first int // first-alarm epoch, -1 if never
		hits  int
	}
	outs := make([]trialOut, p.Trials)
	err := forEachTrial(p.Seed, 0, p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
		outs[t].first = -1
		for e := 0; e < p.Epochs; e++ {
			// Each epoch draws fresh digests, hence a fresh graph; the
			// pattern vertices persist but their random overlaps redraw.
			g, _ := p.Model.SamplePlanted(rng, p.P1, p2, p.N1)
			if unaligned.ERTest(g, p.Threshold).PatternDetected {
				outs[t].hits++
				if outs[t].first < 0 {
					outs[t].first = e
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	detections, latencySum, alarmed := 0, 0, 0
	for _, o := range outs {
		detections += o.hits
		if o.first >= 0 {
			alarmed++
			latencySum += o.first + 1
			for e := o.first; e < p.Epochs; e++ {
				res.CumulativeByEpoch[e]++
			}
		}
	}
	for e := range res.CumulativeByEpoch {
		res.CumulativeByEpoch[e] /= float64(p.Trials)
	}
	res.PerEpochDetect = float64(detections) / float64(p.Trials*p.Epochs)
	if alarmed > 0 {
		res.MeanLatency = float64(latencySum) / float64(alarmed)
	} else {
		res.MeanLatency = -1
	}
	return res, nil
}

// Table renders the cumulative detection curve.
func (r *PersistenceResult) Table() string {
	rows := make([][]string, len(r.CumulativeByEpoch))
	for e, c := range r.CumulativeByEpoch {
		rows[e] = []string{d(e + 1), f3(c)}
	}
	title := fmt.Sprintf(
		"Extension §V-B.1 — cross-epoch persistence (n=%d, marginal n1=%d, per-epoch detect %.3f, mean first-alarm epoch %.1f, %d trials)",
		r.Params.Model.N, r.Params.N1, r.PerEpochDetect, r.MeanLatency, r.Params.Trials)
	return table(title, []string{"epoch", "cumulative detect"}, rows)
}
