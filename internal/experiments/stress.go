package experiments

import (
	"fmt"
	"math/rand"

	"dcstream/internal/simulate"
	"dcstream/internal/unaligned"
)

// StressParams sizes the bursty-trace stress test (§V-B.4): run the *full
// bitmap pipeline* — collectors, flow splitting, offset sampling, λ-table
// graph induction, core finding — under (a) evenly split background traffic
// and (b) Zipf-skewed bursty traffic standing in for the tier-1 ISP trace,
// and search for the minimum number of content carriers that yields ≥50%
// recall. The paper found burstiness slightly *helps* (121 vs 125 vertices
// at g=100) because heavy flows soak up whole rows and leave the rest
// lightly loaded.
type StressParams struct {
	Seed              uint64
	Routers           int
	Collector         unaligned.CollectorConfig
	BackgroundPackets int
	ZipfFlows         int
	ZipfS             float64
	ContentPackets    int
	CarrierGrid       []int
	Trials            int
	TargetRecall      float64
	Beta              int
	D                 int
	// Workers fans trials out over goroutines (0 = GOMAXPROCS, negative =
	// serial); results are identical at every setting.
	Workers int
}

// StressParamsFor returns the experiment sizing for a scale. Even at
// ScalePaper the pipeline runs at reduced vertex count: the O(k²n²)
// correlation pass at the paper's n=102,400 needs the hardware assists of
// §IV-D; the pipeline semantics are identical at any n.
func StressParamsFor(seed uint64, s Scale) StressParams {
	p := StressParams{
		Seed:    seed,
		Routers: 24,
		Collector: unaligned.CollectorConfig{
			Groups: 8, ArraysPerGroup: 10, ArrayBits: 512,
			SegmentSize: 100, FragmentLen: 8, MinPayload: 40,
			HashSeed: 99,
		},
		BackgroundPackets: 183 * 8, // ≈30% array fill
		ZipfFlows:         2000,
		ZipfS:             1.25,
		ContentPackets:    60,
		TargetRecall:      0.5,
		D:                 2,
	}
	switch s {
	case ScaleTest:
		p.Routers = 12
		p.Collector.Groups = 4
		p.BackgroundPackets = 183 * 4
		p.CarrierGrid = []int{10}
		p.Trials = 1
	case ScalePaper:
		p.Routers = 48
		p.CarrierGrid = []int{6, 8, 10, 12, 14, 16, 20}
		p.Trials = 5
	default:
		p.CarrierGrid = []int{8, 12, 16}
		p.Trials = 2
	}
	return p
}

// StressCell is one (burstiness, carriers) measurement.
type StressCell struct {
	Bursty   bool
	Carriers int
	// Recall is the mean fraction of carrier vertices recovered.
	Recall float64
	// Precision is the mean fraction of reported vertices that are real.
	Precision float64
	// ERDetect is the fraction of trials where the ER test fired.
	ERDetect float64
}

// StressResult aggregates the sweep.
type StressResult struct {
	Params StressParams
	Cells  []StressCell
	// MinCarriersEven / MinCarriersBursty are the smallest grid values
	// reaching the recall target (-1 if none).
	MinCarriersEven, MinCarriersBursty int
}

func stress(seed uint64, s Scale, workers int) (Result, error) {
	p := StressParamsFor(seed, s)
	p.Workers = workers
	return RunStress(p)
}

// RunStress executes the experiment.
func RunStress(p StressParams) (*StressResult, error) {
	if p.Trials <= 0 {
		return nil, fmt.Errorf("experiments: stress test needs positive trials")
	}
	res := &StressResult{Params: p, MinCarriersEven: -1, MinCarriersBursty: -1}
	n := p.Routers * p.Collector.Groups
	beta := p.Beta
	for _, bursty := range []bool{false, true} {
		for _, carriers := range p.CarrierGrid {
			if carriers > p.Routers {
				return nil, fmt.Errorf("experiments: %d carriers exceed %d routers", carriers, p.Routers)
			}
			type trialOut struct{ recall, prec, er float64 }
			outs := make([]trialOut, p.Trials)
			burstyBit := uint64(0)
			if bursty {
				burstyBit = 1
			}
			err := forEachTrial(p.Seed, burstyBit<<32|uint64(carriers), p.Trials, p.Workers, func(t int, rng *rand.Rand) error {
				sc := simulate.UnalignedScenario{
					Seed:              rng.Uint64(),
					Routers:           p.Routers,
					Collector:         p.Collector,
					BackgroundPackets: p.BackgroundPackets,
					ContentPackets:    p.ContentPackets,
					Carriers:          firstN(carriers),
				}
				if bursty {
					sc.BackgroundFlows = p.ZipfFlows
					sc.ZipfS = p.ZipfS
				}
				run, err := simulate.RunUnaligned(sc)
				if err != nil {
					return err
				}
				gm, err := unaligned.Merge(run.Digests)
				if err != nil {
					return err
				}
				p1 := 0.5 / float64(n)
				lt, err := unaligned.NewLambdaTable(p.Collector.ArrayBits,
					unaligned.PStarForEdgeProbability(p1, p.Collector.ArraysPerGroup*p.Collector.ArraysPerGroup))
				if err != nil {
					return err
				}
				g, err := gm.BuildGraph(lt)
				if err != nil {
					return err
				}
				if unaligned.ERTest(g, carriers/2+2).PatternDetected {
					outs[t].er = 1
				}
				b := beta
				if b == 0 {
					b = carriers / 2
					if b < 4 {
						b = 4
					}
				}
				found, err := unaligned.FindPattern(g, unaligned.PatternConfig{Beta: b, D: p.D})
				if err != nil {
					return err
				}
				truth := make(map[unaligned.Vertex]bool, len(run.CarrierVertices))
				for _, v := range run.CarrierVertices {
					truth[v] = true
				}
				tp := 0
				for _, v := range found {
					if truth[gm.Vertex(v)] {
						tp++
					}
				}
				outs[t].recall = float64(tp) / float64(carriers)
				if len(found) > 0 {
					outs[t].prec = float64(tp) / float64(len(found))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			var sumRecall, sumPrec, sumER float64
			for _, o := range outs {
				sumRecall += o.recall
				sumPrec += o.prec
				sumER += o.er
			}
			cell := StressCell{
				Bursty:    bursty,
				Carriers:  carriers,
				Recall:    sumRecall / float64(p.Trials),
				Precision: sumPrec / float64(p.Trials),
				ERDetect:  sumER / float64(p.Trials),
			}
			res.Cells = append(res.Cells, cell)
			if cell.Recall >= p.TargetRecall {
				if bursty && res.MinCarriersBursty < 0 {
					res.MinCarriersBursty = carriers
				}
				if !bursty && res.MinCarriersEven < 0 {
					res.MinCarriersEven = carriers
				}
			}
		}
	}
	return res, nil
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Table renders the sweep.
func (r *StressResult) Table() string {
	rows := make([][]string, len(r.Cells))
	for i, c := range r.Cells {
		kind := "even"
		if c.Bursty {
			kind = "bursty"
		}
		rows[i] = []string{kind, d(c.Carriers), f3(c.Recall), f3(c.Precision), f3(c.ERDetect)}
	}
	title := fmt.Sprintf(
		"§V-B.4 stress test — full bitmap pipeline, even vs Zipf-bursty background (%d routers × %d groups, g=%d, %d trials; min carriers @%.0f%% recall: even=%d bursty=%d; paper at full scale: 125 vs 121)",
		r.Params.Routers, r.Params.Collector.Groups, r.Params.ContentPackets,
		r.Params.Trials, 100*r.Params.TargetRecall, r.MinCarriersEven, r.MinCarriersBursty)
	return table(title, []string{"traffic", "carriers", "recall", "precision", "ER detect"}, rows)
}
