package unaligned

import (
	"fmt"
	"math"
	"math/rand"

	"dcstream/internal/graph"
	"dcstream/internal/stats"
)

// Model captures the random-graph abstraction of the unaligned analysis: the
// matrix→graph construction makes the null graph Erdős–Rényi with a uniform
// edge probability p1, while vertex pairs that both saw the common content
// connect with a larger probability p2 that depends on the content length g.
// The paper's own Monte-Carlo evaluation (Figure 13, Tables I–III) operates
// at this level for the full 102,400-vertex scale; the bitmap-level pipeline
// in this package validates the model at reduced scale.
type Model struct {
	// N is the number of graph vertices (groups across all routers);
	// 102,400 in the paper's reference deployment.
	N int
	// ArrayBits is the row width (1,024).
	ArrayBits int
	// RowWeight is the typical number of ones per row; arrays are run to
	// half full, so ArrayBits/2. Zero means ArrayBits/2.
	RowWeight int
	// RowPairs is the number of row combinations compared per vertex pair
	// (k² = 100 for 10 arrays per group). Zero means 100.
	RowPairs int
	// SegmentSpan is the offset-matching modulus (the 536-byte segment).
	// Zero means 536.
	SegmentSpan int
	// Offsets is k, the number of sampling offsets per router. Zero means 10.
	Offsets int
}

// WithDefaults returns the model with all zero fields replaced by the
// paper's reference values; callers that read fields like RowPairs directly
// must go through this first.
func (m Model) WithDefaults() Model { return m.withDefaults() }

func (m Model) withDefaults() Model {
	if m.RowWeight == 0 {
		m.RowWeight = m.ArrayBits / 2
	}
	if m.RowPairs == 0 {
		m.RowPairs = 100
	}
	if m.SegmentSpan == 0 {
		m.SegmentSpan = 536
	}
	if m.Offsets == 0 {
		m.Offsets = 10
	}
	return m
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	m = m.withDefaults()
	if m.N <= 1 || m.ArrayBits <= 0 {
		return fmt.Errorf("unaligned: bad model dimensions %+v", m)
	}
	if m.RowWeight <= 0 || m.RowWeight > m.ArrayBits {
		return fmt.Errorf("unaligned: RowWeight %d outside (0,%d]", m.RowWeight, m.ArrayBits)
	}
	if m.SegmentSpan <= 0 || m.Offsets <= 0 || m.RowPairs <= 0 {
		return fmt.Errorf("unaligned: non-positive model parameter in %+v", m)
	}
	return nil
}

// MatchProbability returns the probability that two routers that both saw
// the content have at least one offset-congruent array pair: with k offsets
// each, the k² offset differences cover a random prefix shift with
// probability ≈ 1-exp(-k²/span) (§IV-A).
func (m Model) MatchProbability() float64 {
	m = m.withDefaults()
	k := float64(m.Offsets)
	return 1 - math.Exp(-k*k/float64(m.SegmentSpan))
}

// EffectiveSignal returns the expected number of distinct array indices the
// g content packets occupy — slightly under g because of hash collisions in
// an ArrayBits-wide array.
func (m Model) EffectiveSignal(g int) float64 {
	m = m.withDefaults()
	nb := float64(m.ArrayBits)
	return nb * (1 - math.Pow(1-1/nb, float64(g)))
}

// EdgeProbabilities returns (p1, p2) for a λ table built with the given
// per-row-pair tail p*: p1 is the background edge probability between any
// two vertices, and p2 the probability between two vertices that both saw a
// g-packet common content. p2 combines the offset-match probability with
// the chance that the matched rows' overlap — the g forced common ones plus
// the residual hypergeometric overlap — clears the λ threshold.
func (m Model) EdgeProbabilities(pstar float64, g int) (p1, p2 float64) {
	m = m.withDefaults()
	p1 = EdgeProbabilityForPStar(pstar, m.RowPairs)
	lambda := stats.HyperThreshold(m.ArrayBits, m.RowWeight, m.RowWeight, pstar)
	geff := int(m.EffectiveSignal(g) + 0.5)
	if geff > m.RowWeight {
		geff = m.RowWeight
	}
	// Residual overlap of the non-content portions of the two matched rows:
	// the g content bits are part of each row's weight, so the residual is
	// hypergeometric over the remaining positions and ones. (The paper's
	// Table II constants are consistent with a looser approximation that
	// keeps the full row weights; see EXPERIMENTS.md for the comparison.)
	pHit := stats.HyperSurvival(lambda-geff, m.ArrayBits-geff, m.RowWeight-geff, m.RowWeight-geff)
	pm := m.MatchProbability()
	p2 = pm*pHit + (1-pm*pHit)*p1
	return p1, p2
}

// SampleNull draws the null-hypothesis graph G(N, p1).
func (m Model) SampleNull(rng *rand.Rand, p1 float64) *graph.Graph {
	return graph.GNP(rng, m.withDefaults().N, p1)
}

// SamplePlanted draws a graph with n1 pattern vertices: background edges
// with probability p1 everywhere, plus edges among the pattern vertices with
// probability p2. It returns the graph and the pattern vertex set.
func (m Model) SamplePlanted(rng *rand.Rand, p1, p2 float64, n1 int) (*graph.Graph, []int) {
	mm := m.withDefaults()
	g := graph.GNP(rng, mm.N, p1)
	pattern := stats.SampleDistinct(rng, mm.N, n1)
	// Pattern pairs already connected by background keep their edge; the
	// planting only needs to top p1 up to p2.
	extra := (p2 - p1) / (1 - p1)
	if extra > 0 {
		graph.PlantDense(rng, g, pattern, extra)
	}
	return g, pattern
}
