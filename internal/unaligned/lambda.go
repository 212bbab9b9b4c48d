package unaligned

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dcstream/internal/stats"
)

// LambdaTable is the paper's Λ = {λ_{i,j}} threshold list (§IV-B): for two
// rows containing i and j ones out of N bits, their overlap X(i,j) under the
// null follows a hypergeometric distribution, and λ_{i,j} is the smallest
// threshold with P[X(i,j) > λ_{i,j}] ≤ p*. Using weight-dependent thresholds
// keeps the edge probability uniform across row pairs even though array
// fills differ, which is what makes the induced graph Erdős–Rényi.
//
// Entries are computed lazily and memoized; a table is safe for concurrent
// readers. The tracker asks tens of thousands of times per digest, so rows of
// ordinary width memoize in a dense square whose row i — λ(i, ·), contiguous —
// the tracker fetches once per outer row and reads with one atomic load a
// pair; only rows too wide for that pay a lock and a hash.
type LambdaTable struct {
	n     int
	pstar float64
	// dense holds λ+1 for weights (i, j) at i*(n+1)+j, zero meaning not yet
	// computed; each pair is computed once and stored at (i, j) and (j, i).
	// nil (memo instead) past maxDenseBits.
	dense []atomic.Int32
	mu    sync.Mutex
	memo  map[uint64]int // guarded by mu
}

// maxDenseBits is the widest row given a dense square: (n+1)² entries stay
// within 1<<22, 16 MiB of zero pages untouched until asked for. Row width
// arrives off the wire, millions of bits at worst, so it cannot size the table.
const maxDenseBits = 2047

// NewLambdaTable returns a table for rows of n bits with per-row-pair tail
// probability pstar.
func NewLambdaTable(n int, pstar float64) (*LambdaTable, error) {
	if n <= 0 {
		return nil, fmt.Errorf("unaligned: non-positive row width %d", n)
	}
	if pstar <= 0 || pstar >= 1 {
		return nil, fmt.Errorf("unaligned: pstar %v outside (0,1)", pstar)
	}
	t := &LambdaTable{n: n, pstar: pstar}
	if n <= maxDenseBits {
		t.dense = make([]atomic.Int32, (n+1)*(n+1))
	} else {
		t.memo = make(map[uint64]int)
	}
	return t, nil
}

// N returns the row width the table was built for.
func (t *LambdaTable) N() int { return t.n }

// PStar returns the per-row-pair tail probability.
func (t *LambdaTable) PStar() float64 { return t.pstar }

// Threshold returns λ_{i,j} for rows with i and j ones. It panics if i or j
// is outside [0, N].
func (t *LambdaTable) Threshold(i, j int) int {
	if i < 0 || i > t.n || j < 0 || j > t.n {
		panic(fmt.Sprintf("unaligned: row weight (%d,%d) outside [0,%d]", i, j, t.n))
	}
	if t.dense != nil {
		if v := t.dense[i*(t.n+1)+j].Load(); v != 0 {
			return int(v - 1)
		}
		// X(i,j) is symmetric in the two weights. Two readers racing here
		// compute and store the same value.
		v := stats.HyperThreshold(t.n, min(i, j), max(i, j), t.pstar)
		t.dense[i*(t.n+1)+j].Store(int32(v + 1))
		t.dense[j*(t.n+1)+i].Store(int32(v + 1))
		return v
	}
	if i > j {
		i, j = j, i
	}
	key := uint64(i)<<32 | uint64(j)
	t.mu.Lock()
	v, ok := t.memo[key]
	t.mu.Unlock()
	if ok {
		return v
	}
	v = stats.HyperThreshold(t.n, i, j, t.pstar)
	t.mu.Lock()
	t.memo[key] = v
	t.mu.Unlock()
	return v
}

// row returns λ(i, ·)+1 for every second weight, zero where Threshold(i, j)
// has not been asked yet, or nil when the table memoizes in a map.
func (t *LambdaTable) row(i int) []atomic.Int32 {
	if t.dense == nil {
		return nil
	}
	return t.dense[i*(t.n+1) : (i+1)*(t.n+1)]
}

// PStarForEdgeProbability converts a target per-vertex-pair edge probability
// p1 into the per-row-pair tail p*, given that each vertex pair compares
// rowPairs row combinations: p1 = 1-(1-p*)^rowPairs.
func PStarForEdgeProbability(p1 float64, rowPairs int) float64 {
	if rowPairs <= 0 || p1 <= 0 {
		return 0
	}
	// p* = 1-(1-p1)^{1/rowPairs}; for tiny p1 this is p1/rowPairs, which is
	// also the numerically stable branch.
	if p1 < 1e-6 {
		return p1 / float64(rowPairs)
	}
	return 1 - math.Pow(1-p1, 1/float64(rowPairs))
}

// EdgeProbabilityForPStar is the inverse conversion.
func EdgeProbabilityForPStar(pstar float64, rowPairs int) float64 {
	if rowPairs <= 0 || pstar <= 0 {
		return 0
	}
	if pstar*float64(rowPairs) < 1e-6 {
		return pstar * float64(rowPairs)
	}
	return 1 - math.Pow(1-pstar, float64(rowPairs))
}
