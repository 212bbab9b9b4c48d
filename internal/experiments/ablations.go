package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/unaligned"
)

// AblationOffsets measures the offset-count design choice (§IV-A): the
// probability that two routers carrying the same unaligned content produce
// a matching array pair, as a function of k, against the 1-exp(-k²/span)
// prediction. This is the paper's k² signal amplification.
type AblationOffsetsParams struct {
	Seed        uint64
	KValues     []int
	Pairs       int // router pairs per k
	SegmentSize int
	ContentG    int
	// Workers fans pairs out over goroutines (0 = GOMAXPROCS, negative =
	// serial); results are identical at every setting.
	Workers int
}

// AblationOffsetsParamsFor returns sizing for a scale.
func AblationOffsetsParamsFor(seed uint64, s Scale) AblationOffsetsParams {
	p := AblationOffsetsParams{Seed: seed, SegmentSize: 100, ContentG: 60}
	switch s {
	case ScaleTest:
		p.KValues = []int{4, 10}
		p.Pairs = 40
	case ScalePaper:
		p.KValues = []int{2, 4, 6, 8, 10, 12, 14}
		p.Pairs = 400
	default:
		p.KValues = []int{2, 4, 6, 8, 10, 14}
		p.Pairs = 120
	}
	return p
}

// AblationOffsetsRow is one k's measurement.
type AblationOffsetsRow struct {
	K         int
	Measured  float64
	Predicted float64
}

// AblationOffsetsResult aggregates the sweep.
type AblationOffsetsResult struct {
	Params AblationOffsetsParams
	Rows   []AblationOffsetsRow
}

func ablationOffsets(seed uint64, s Scale, workers int) (Result, error) {
	p := AblationOffsetsParamsFor(seed, s)
	p.Workers = workers
	return RunAblationOffsets(p)
}

// RunAblationOffsets executes the sweep.
func RunAblationOffsets(p AblationOffsetsParams) (*AblationOffsetsResult, error) {
	setupRng := stats.NewRand(p.Seed)
	content := trafficgen.NewContent(setupRng, p.ContentG, p.SegmentSize)
	prefix := make([]byte, p.SegmentSize)
	setupRng.Read(prefix)
	res := &AblationOffsetsResult{Params: p}
	for ki, k := range p.KValues {
		cfg := unaligned.CollectorConfig{
			Groups: 1, ArraysPerGroup: k, ArrayBits: 512,
			SegmentSize: p.SegmentSize, FragmentLen: 8, MinPayload: 40,
			HashSeed: 7,
		}
		matchSlots := make([]bool, p.Pairs)
		err := forEachTrial(p.Seed, uint64(ki), p.Pairs, p.Workers, func(trial int, rng *rand.Rand) error {
			aCfg, bCfg := cfg, cfg
			aCfg.OffsetSeed = rng.Uint64()
			bCfg.OffsetSeed = rng.Uint64()
			a, err := unaligned.NewCollector(aCfg)
			if err != nil {
				return err
			}
			b, err := unaligned.NewCollector(bCfg)
			if err != nil {
				return err
			}
			la, lb := rng.Intn(p.SegmentSize), rng.Intn(p.SegmentSize)
			for _, pk := range packet.Instance(1, content.Data, prefix, la, p.SegmentSize) {
				a.Update(pk)
			}
			for _, pk := range packet.Instance(2, content.Data, prefix, lb, p.SegmentSize) {
				b.Update(pk)
			}
			da, db := a.Digest(0), b.Digest(1)
			best := 0
			for _, ra := range da.Rows[0] {
				for _, rb := range db.Rows[0] {
					if c := bitvec.AndCount(ra, rb); c > best {
						best = c
					}
				}
			}
			matchSlots[trial] = best >= p.ContentG*2/3
			return nil
		})
		if err != nil {
			return nil, err
		}
		matches := 0
		for _, m := range matchSlots {
			if m {
				matches++
			}
		}
		model := unaligned.Model{
			N: 2, ArrayBits: 512, RowWeight: 256,
			SegmentSpan: p.SegmentSize, Offsets: k, RowPairs: k * k,
		}
		res.Rows = append(res.Rows, AblationOffsetsRow{
			K:         k,
			Measured:  float64(matches) / float64(p.Pairs),
			Predicted: model.MatchProbability(),
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r *AblationOffsetsResult) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{d(row.K), f3(row.Measured), f3(row.Predicted)}
	}
	title := fmt.Sprintf(
		"Ablation — offset count k vs match probability (segment %d, %d pairs/k; prediction 1-exp(-k²/span))",
		r.Params.SegmentSize, r.Params.Pairs)
	return table(title, []string{"k offsets", "measured", "predicted"}, rows)
}

// AblationHopefulsParams measures the aligned detector's hopeful-list width
// K (the paper keeps O(n) hopefuls and notes shorter lists "may" suffice):
// detection ratio and wall time as K shrinks.
type AblationHopefulsParams struct {
	Seed               uint64
	Rows, Cols         int
	SubsetSize         int
	PatternA, PatternB int
	KValues            []int
	Trials             int
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial); detection results are identical at every setting.
	Workers int
}

// AblationHopefulsParamsFor returns sizing for a scale.
func AblationHopefulsParamsFor(seed uint64, s Scale) AblationHopefulsParams {
	p := AblationHopefulsParams{
		Seed: seed, Rows: 1000, Cols: 4 << 20, SubsetSize: 1000,
		PatternA: 100, PatternB: 30,
	}
	switch s {
	case ScaleTest:
		p.KValues = []int{64, 256}
		p.Trials = 2
	case ScalePaper:
		p.KValues = []int{32, 64, 128, 256, 512, 1000}
		p.Trials = 20
	default:
		p.KValues = []int{32, 128, 512}
		p.Trials = 5
	}
	return p
}

// AblationHopefulsRow is one K's measurement.
type AblationHopefulsRow struct {
	K          int
	Detected   float64
	MeanMillis float64
}

// AblationHopefulsResult aggregates the sweep.
type AblationHopefulsResult struct {
	Params AblationHopefulsParams
	Rows   []AblationHopefulsRow
}

func ablationHopefuls(seed uint64, s Scale, workers int) (Result, error) {
	p := AblationHopefulsParamsFor(seed, s)
	p.Workers = workers
	return RunAblationHopefuls(p)
}

// RunAblationHopefuls executes the sweep.
func RunAblationHopefuls(p AblationHopefulsParams) (*AblationHopefulsResult, error) {
	res := &AblationHopefulsResult{Params: p}
	for ki, k := range p.KValues {
		type trialOut struct {
			hit     bool
			elapsed time.Duration
		}
		outs := make([]trialOut, p.Trials)
		err := forEachTrial(p.Seed, uint64(ki), p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
			vs, err := aligned.SampleHeavyColumns(rng, aligned.VirtualConfig{
				Rows: p.Rows, Cols: p.Cols, SubsetSize: p.SubsetSize,
				PatternRows: p.PatternA, PatternCols: p.PatternB,
			})
			if err != nil {
				return err
			}
			cfg := aligned.RefinedConfig(p.SubsetSize)
			cfg.Hopefuls = k
			cfg.Workers = serialDetector
			start := time.Now()
			det, err := aligned.Detect(vs.Matrix, cfg)
			outs[t].elapsed = time.Since(start)
			if err != nil {
				return err
			}
			outs[t].hit = det.Found && patternRecovered(det.Rows, vs.PatternRowSet)
			return nil
		})
		if err != nil {
			return nil, err
		}
		hits := 0
		var elapsed time.Duration
		for _, o := range outs {
			if o.hit {
				hits++
			}
			elapsed += o.elapsed
		}
		res.Rows = append(res.Rows, AblationHopefulsRow{
			K:          k,
			Detected:   float64(hits) / float64(p.Trials),
			MeanMillis: float64(elapsed.Milliseconds()) / float64(p.Trials),
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r *AblationHopefulsResult) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{d(row.K), f3(row.Detected), f1(row.MeanMillis)}
	}
	title := fmt.Sprintf(
		"Ablation — hopeful-list width K (matrix %dx%d, pattern %dx%d, n'=%d, %d trials)",
		r.Params.Rows, r.Params.Cols, r.Params.PatternA, r.Params.PatternB,
		r.Params.SubsetSize, r.Params.Trials)
	return table(title, []string{"K hopefuls", "detected", "mean ms"}, rows)
}

// AblationSamplingParams measures §IV-D's vertex-sampling complexity remedy:
// find the core in a sampled subset of the graph only, then expand. Recall
// degrades gracefully as the sampling rate drops while the dominant
// correlation cost shrinks quadratically.
type AblationSamplingParams struct {
	Seed   uint64
	Model  unaligned.Model
	CoreP1 float64
	G      int
	N1     int
	Rates  []float64
	Trials int
	D      int
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial); results are identical at every setting.
	Workers int
}

// AblationSamplingParamsFor returns sizing for a scale.
func AblationSamplingParamsFor(seed uint64, s Scale) AblationSamplingParams {
	p := AblationSamplingParams{
		Seed:   seed,
		Model:  unaligned.Model{N: 102400, ArrayBits: 1024, RowWeight: 307},
		CoreP1: 0.8e-4,
		G:      100,
		N1:     160,
		D:      3,
	}
	switch s {
	case ScaleTest:
		p.Model.N = 20000
		p.Rates = []float64{1, 0.25}
		p.Trials = 2
	case ScalePaper:
		p.Rates = []float64{1, 0.5, 0.25, 0.1}
		p.Trials = 10
	default:
		p.Rates = []float64{1, 0.5, 0.1}
		p.Trials = 4
	}
	return p
}

// AblationSamplingRow is one sampling rate's measurement.
type AblationSamplingRow struct {
	Rate   float64
	Recall float64
	// WorkFraction is the relative pairwise-correlation cost (rate²).
	WorkFraction float64
}

// AblationSamplingResult aggregates the sweep.
type AblationSamplingResult struct {
	Params AblationSamplingParams
	Rows   []AblationSamplingRow
}

func ablationSampling(seed uint64, s Scale, workers int) (Result, error) {
	p := AblationSamplingParamsFor(seed, s)
	p.Workers = workers
	return RunAblationSampling(p)
}

// RunAblationSampling executes the sweep. The sampled-core strategy: find a
// core among the sampled vertices, then pull in every unsampled vertex with
// at least D edges into that core (the cheap O(n·|core|) expansion).
func RunAblationSampling(p AblationSamplingParams) (*AblationSamplingResult, error) {
	if err := p.Model.Validate(); err != nil {
		return nil, err
	}
	p.Model = p.Model.WithDefaults()
	pstar := unaligned.PStarForEdgeProbability(p.CoreP1, p.Model.RowPairs)
	_, p2 := p.Model.EdgeProbabilities(pstar, p.G)
	res := &AblationSamplingResult{Params: p}
	for ri, rate := range p.Rates {
		recallSlots := make([]float64, p.Trials)
		err := forEachTrial(p.Seed, uint64(ri), p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
			g, pattern := p.Model.SamplePlanted(rng, p.CoreP1, p2, p.N1)
			inPattern := make(map[int]bool, len(pattern))
			for _, v := range pattern {
				inPattern[v] = true
			}
			var found []int
			if rate >= 1 {
				var err error
				found, err = unaligned.FindPattern(g, unaligned.PatternConfig{Beta: p.N1 / 2, D: p.D})
				if err != nil {
					return err
				}
			} else {
				// Core within the sample, expansion over the full graph.
				sampleSize := int(rate * float64(p.Model.N))
				sample := stats.SampleDistinct(rng, p.Model.N, sampleSize)
				sub, orig := g.Induced(sample)
				beta := int(rate * float64(p.N1) / 2)
				if beta < 4 {
					beta = 4
				}
				core := make([]int, 0, beta)
				for _, v := range sub.Core(beta) {
					core = append(core, orig[v])
				}
				counts := g.CountEdgesInto(core)
				inCore := make(map[int]bool, len(core))
				for _, v := range core {
					inCore[v] = true
				}
				found = append(found, core...)
				for v := 0; v < g.NumVertices(); v++ {
					if !inCore[v] && counts[v] >= p.D {
						found = append(found, v)
					}
				}
			}
			tp := 0
			for _, v := range found {
				if inPattern[v] {
					tp++
				}
			}
			recallSlots[t] = float64(tp) / float64(p.N1)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var sumRecall float64
		for _, r := range recallSlots {
			sumRecall += r
		}
		res.Rows = append(res.Rows, AblationSamplingRow{
			Rate:         rate,
			Recall:       sumRecall / float64(p.Trials),
			WorkFraction: rate * rate,
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r *AblationSamplingResult) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{f3(row.Rate), f3(row.Recall), f3(row.WorkFraction)}
	}
	title := fmt.Sprintf(
		"Ablation — vertex sampling (§IV-D remedy 2; n=%d, n1=%d, g=%d, %d trials)",
		r.Params.Model.N, r.Params.N1, r.Params.G, r.Params.Trials)
	return table(title, []string{"sample rate", "recall", "correlation work"}, rows)
}
