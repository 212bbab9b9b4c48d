package aligned

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dcstream/internal/stats"
)

// VirtualConfig describes a paper-scale random matrix (e.g. 1000×4M) that is
// never materialized. Because the refined detector only ever reads the
// SubsetSize heaviest columns, it suffices to sample those columns exactly:
// the count of noise columns at each weight w follows Binomial(Cols, pmf(w))
// (Poissonized here — Cols is in the millions and the per-weight
// probabilities are tiny, so the approximation error is far below
// Monte-Carlo noise), and a noise column of weight w is a uniform w-subset
// of rows. Planted pattern columns carry the fixed pattern rows plus fair
// coins elsewhere. This reproduces the full-generation experiment of §V-A
// in milliseconds instead of gigabytes.
type VirtualConfig struct {
	// Rows and Cols are the virtual matrix dimensions m×n.
	Rows, Cols int
	// SubsetSize is how many heaviest columns to sample (the detector's n′).
	SubsetSize int
	// PatternRows and PatternCols plant an a×b all-1 pattern; both zero
	// means a pure-noise matrix.
	PatternRows, PatternCols int
}

// Validate reports whether the configuration is usable.
func (c VirtualConfig) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 || c.SubsetSize <= 0 {
		return fmt.Errorf("aligned: non-positive virtual dimension in %+v", c)
	}
	if c.SubsetSize > c.Cols {
		return fmt.Errorf("aligned: SubsetSize %d exceeds Cols %d", c.SubsetSize, c.Cols)
	}
	if (c.PatternRows == 0) != (c.PatternCols == 0) {
		return fmt.Errorf("aligned: pattern dimensions must both be set or both zero")
	}
	if c.PatternRows < 0 || c.PatternRows > c.Rows || c.PatternCols < 0 || c.PatternCols > c.Cols {
		return fmt.Errorf("aligned: pattern %dx%d does not fit %dx%d",
			c.PatternRows, c.PatternCols, c.Rows, c.Cols)
	}
	return nil
}

// VirtualSample is the materialized S₁ of a virtual matrix.
type VirtualSample struct {
	// Matrix holds the SubsetSize heaviest columns (order unspecified).
	Matrix *Matrix
	// PatternRowSet lists the planted pattern's rows (nil without pattern).
	PatternRowSet []int
	// PatternColsInS1 lists which columns of Matrix belong to the planted
	// pattern — the paper's l, the number of pattern columns that survive
	// screening (15 in Figure 7's example instance).
	PatternColsInS1 []int
}

type virtualCand struct {
	weight  int
	pattern bool
	tie     uint64
}

// SampleHeavyColumns draws the SubsetSize heaviest columns of the virtual
// matrix, exactly distributed as if all Cols columns had been generated and
// screened.
func SampleHeavyColumns(rng *rand.Rand, cfg VirtualConfig) (*VirtualSample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, n := cfg.Rows, cfg.Cols
	a, b := cfg.PatternRows, cfg.PatternCols

	// Choose a weight floor low enough that the expected number of noise
	// columns above it comfortably exceeds SubsetSize, then Poisson-sample
	// the per-weight counts from the floor up to m.
	var cands []virtualCand
	floor := stats.BinomUpperQuantile(m, 0.5, 2*float64(cfg.SubsetSize+b)/float64(n))
	for {
		cands = cands[:0]
		for w := floor + 1; w <= m; w++ {
			lambda := float64(n-b) * math.Exp(stats.BinomLogPMF(w, m, 0.5))
			if lambda <= 0 {
				continue
			}
			cnt := stats.Poisson(rng, lambda)
			for i := 0; i < cnt; i++ {
				cands = append(cands, virtualCand{weight: w, tie: rng.Uint64()})
			}
		}
		if len(cands) >= cfg.SubsetSize || floor < 0 {
			break
		}
		floor -= 8 // extremely unlikely; widen and resample
	}

	// Pattern columns compete for S₁ on their sampled weights.
	for i := 0; i < b; i++ {
		w := a + int(stats.Binomial(rng, int64(m-a), 0.5))
		cands = append(cands, virtualCand{weight: w, pattern: true, tie: rng.Uint64()})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].weight != cands[j].weight {
			return cands[i].weight > cands[j].weight
		}
		return cands[i].tie < cands[j].tie // uniform tie-break at the cutoff
	})
	if len(cands) > cfg.SubsetSize {
		cands = cands[:cfg.SubsetSize]
	}

	out := &VirtualSample{Matrix: NewMatrix(m, len(cands))}
	var patternRows []int
	if a > 0 {
		patternRows = stats.SampleDistinct(rng, m, a)
		out.PatternRowSet = patternRows
	}
	inPattern := make([]bool, m)
	for _, r := range patternRows {
		inPattern[r] = true
	}
	// Row ids outside the pattern, for sampling a pattern column's noise part.
	others := make([]int, 0, m-a)
	for r := 0; r < m; r++ {
		if !inPattern[r] {
			others = append(others, r)
		}
	}
	for j, c := range cands {
		if c.pattern {
			for _, r := range patternRows {
				out.Matrix.Set(r, j)
			}
			extra := c.weight - a
			if extra > 0 {
				for _, k := range stats.SampleDistinct(rng, len(others), extra) {
					out.Matrix.Set(others[k], j)
				}
			}
			out.PatternColsInS1 = append(out.PatternColsInS1, j)
			continue
		}
		for _, r := range stats.SampleDistinct(rng, m, c.weight) {
			out.Matrix.Set(r, j)
		}
	}
	return out, nil
}
