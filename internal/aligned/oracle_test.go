package aligned

// The level scan as it stood before the flat-word layout (commit 23d0c92),
// kept verbatim under test-only names: pointer-per-column products, a vector
// free list, container/heap and sort.Slice. Batch and incremental analysis
// share one detector and would agree on a wrong answer, so the differential
// sweep in golden_test.go holds the live detector to this one on seeded
// shapes. It reaches the matrix only through Rows, Cols and Col.

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"dcstream/internal/bitvec"
)

// oracleProduct is one entry of the hopeful list: an AND of |members| columns.
type oracleProduct struct {
	vec     *bitvec.Vector
	weight  int
	members []int32 // positions within the sorted S₁ ordering, ascending
	// owned marks vectors allocated by oracleExtend, which return to the free
	// list when their level is dropped. Level-1 products borrow the matrix
	// columns themselves and must never be recycled.
	owned bool
}

func (p *oracleProduct) maxMember() int32 { return p.members[len(p.members)-1] }

// oracleCand scores a prospective extension of hopeful hi by column cj.
type oracleCand struct {
	hi, cj int32
	weight int32
}

// better is the strict total order deciding which candidates survive a full
// top-k list: heavier first, then lower hopeful index, then lower column
// index. No two candidates share (hi, cj), so the order has no ties and the
// kept set is a pure function of the matrix — the same at any worker count.
func (c oracleCand) better(o oracleCand) bool {
	if c.weight != o.weight {
		return c.weight > o.weight
	}
	if c.hi != o.hi {
		return c.hi < o.hi
	}
	return c.cj < o.cj
}

// oracleHeap is a bounded top-k heap whose root is the *worst* kept candidate
// under the better order, so Pop evicts deterministically on weight ties.
type oracleHeap []oracleCand

func (h oracleHeap) Len() int            { return len(h) }
func (h oracleHeap) Less(i, j int) bool  { return h[j].better(h[i]) }
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(oracleCand)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oraclePool recycles the product vectors of dropped hopeful levels. Every
// vector in the aligned search has the same length (the matrix row count)
// and AndInto overwrites every word, so recycled vectors need no reset.
// oracleExtend builds products serially after the parallel scan, so the pool is
// only ever touched from one goroutine.
type oraclePool struct {
	free []*bitvec.Vector
	n    int
}

func (vp *oraclePool) get() *bitvec.Vector {
	if k := len(vp.free); k > 0 {
		v := vp.free[k-1]
		vp.free = vp.free[:k-1]
		return v
	}
	return bitvec.New(vp.n)
}

// recycle returns a level's owned vectors to the pool. Callers must not do
// this before the next level is built: its AndInto reads these vectors.
func (vp *oraclePool) recycle(level []*oracleProduct) {
	for _, p := range level {
		if p.owned {
			vp.free = append(vp.free, p.vec)
		}
	}
}

// oracleDetectWithWeights is Detect with the column weights supplied by the caller.
// The incremental accumulator maintains exact per-column popcounts as digests
// arrive, so finalize skips the full O(n·m/64) popcount sweep; the weights
// must equal m.ColumnWeights() or the screening order (and hence the result)
// is undefined.
func oracleDetectWithWeights(m *Matrix, weights []int, cfg DetectorConfig) (Detection, error) {
	if err := cfg.Validate(); err != nil {
		return Detection{}, err
	}
	if len(weights) != m.Cols() {
		return Detection{}, fmt.Errorf("aligned: %d column weights for %d columns", len(weights), m.Cols())
	}
	cfg = cfg.withDefaults()
	n := m.Cols()
	if cfg.SubsetSize > n {
		cfg.SubsetSize = n
	}
	if cfg.Hopefuls > cfg.SubsetSize {
		cfg.Hopefuls = cfg.SubsetSize
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}

	// S₁: the SubsetSize heaviest columns ("screening by weight"),
	// descending by weight with index tie-break for determinism. Only the
	// top n′ are needed, so screening is a bounded-heap selection —
	// O(n log n′) instead of a full O(n log n) sort, which matters every
	// finalize once the weights themselves are maintained incrementally.
	s1 := topColumns(weights, cfg.SubsetSize)

	// Level 1: every column of S₁ is a 1-product.
	hopefuls := make([]*oracleProduct, len(s1))
	for pos, j := range s1 {
		hopefuls[pos] = &oracleProduct{
			vec:     m.Col(j),
			weight:  weights[j],
			members: []int32{int32(pos)},
		}
	}
	trace := []int{hopefuls[0].weight}

	s1Weights := make([]int, len(s1))
	sumW := 0
	for pos, j := range s1 {
		s1Weights[pos] = weights[j]
		sumW += weights[j]
	}
	// The S₁ columns are the *heaviest* of the matrix, so their bit density
	// exceeds one half; equation (1) must use the conditioned density or the
	// screening bias masquerades as signal on small instances.
	density := float64(sumW) / float64(len(s1)*m.Rows())
	if density <= 0 || density >= 1 {
		density = 0.5
	}
	logEps := math.Log(cfg.Epsilon)
	score := func(p *oracleProduct) float64 {
		if p.weight == 0 {
			return math.Inf(1)
		}
		return logNaturalOccurrence(m.Rows(), cfg.SubsetSize, p.weight, len(p.members), density)
	}

	// Track the most significant (least naturally occurring) product across
	// all levels; the weight-loss plateau ends exactly where this score is
	// minimized, which is the paper's "right number of iterations".
	best := oracleClone(hopefuls[0])
	bestScore := score(best)
	prevW := hopefuls[0].weight
	flatSeen := false
	pool := &oraclePool{n: m.Rows()}

	for level := 2; level <= cfg.MaxIterations; level++ {
		next := oracleExtend(m, s1, s1Weights, hopefuls, cfg.Hopefuls, workers, pool)
		if len(next) == 0 {
			break
		}
		// The new level is fully materialized, so the old level's owned
		// vectors (best is a clone, nothing else escapes) can be reused.
		pool.recycle(hopefuls)
		hopefuls = next
		w := hopefuls[0].weight
		trace = append(trace, w)

		if s := score(hopefuls[0]); s < bestScore {
			bestScore = s
			best = oracleClone(hopefuls[0])
		}
		// Termination procedure (§III-B): once the curve has flattened and
		// then takes its second exponential dive, the plateau end is behind
		// us; stop early if it was significant (FullTrace keeps going to
		// record the complete Figure 7 curve).
		if flatSeen && float64(w) <= cfg.DiveFactor*float64(prevW) {
			if bestScore <= logEps && !cfg.FullTrace {
				break
			}
			flatSeen = false
		}
		if float64(w) >= cfg.FlatFactor*float64(prevW) {
			flatSeen = true
		}
		prevW = w
		if w == 0 {
			break
		}
	}

	det := Detection{WeightTrace: trace}
	if bestScore > logEps {
		return det, nil
	}
	concluded := best
	det.Found = true
	det.Iterations = len(concluded.members)
	det.Rows = concluded.vec.Indices()
	det.CoreCols = make([]int, 0, len(concluded.members))
	for _, pos := range concluded.members {
		det.CoreCols = append(det.CoreCols, s1[pos])
	}
	sort.Ints(det.CoreCols)

	// Expansion (lines 10–14 of Figure 6): any column sharing at least
	// weight(core)−γ ones with the core vector joins the pattern.
	inCore := make(map[int]bool, len(det.CoreCols))
	for _, j := range det.CoreCols {
		inCore[j] = true
	}
	thresh := concluded.weight - cfg.Gamma
	if thresh < 1 {
		thresh = 1
	}
	det.Cols = append(det.Cols, det.CoreCols...)
	for j := 0; j < n; j++ {
		if inCore[j] {
			continue
		}
		if bitvec.AndCount(concluded.vec, m.Col(j)) >= thresh {
			det.Cols = append(det.Cols, j)
		}
	}
	sort.Ints(det.Cols)
	return det, nil
}

func oracleClone(p *oracleProduct) *oracleProduct {
	return &oracleProduct{
		vec:     p.vec.Clone(),
		weight:  p.weight,
		members: append([]int32(nil), p.members...),
	}
}

// oracleExtend generates the next level of hopefuls: the k heaviest (b′+1)-products
// v·w with v a current hopeful and w a column of S₁ beyond v's largest
// member (each column set is enumerated exactly once, in ascending member
// order). Hopefuls and S₁ are weight-sorted, so the scan prunes with the
// bound weight(v·w) ≤ min(weight(v), weight(w)).
//
// With workers > 1 the candidate scan fans out over strided slices of the
// hopefuls, each worker keeping its own bounded top-k heap. A strided slice
// of a weight-descending list is itself weight-descending, so every pruning
// rule stays valid per worker, and the union of per-worker top-k sets is a
// superset of the global top-k — merging, sorting under the candidate total
// order, and truncating therefore yields exactly the serial result.
func oracleExtend(m *Matrix, s1 []int, s1Weights []int, hopefuls []*oracleProduct, k, workers int, pool *oraclePool) []*oracleProduct {
	if workers > len(hopefuls) {
		workers = len(hopefuls)
	}
	var cands []oracleCand
	if workers <= 1 {
		cands = oracleScan(m, s1, s1Weights, hopefuls, k, 0, 1)
	} else {
		parts := make([][]oracleCand, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				parts[w] = oracleScan(m, s1, s1Weights, hopefuls, k, w, workers)
			}(w)
		}
		wg.Wait()
		for _, p := range parts {
			cands = append(cands, p...)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].better(cands[j]) })
	if len(cands) > k {
		cands = cands[:k]
	}
	// Build the surviving products serially, in final order (heaviest first,
	// ties already resolved by the total order), reusing pooled vectors.
	next := make([]*oracleProduct, len(cands))
	for i, c := range cands {
		p := hopefuls[c.hi]
		vec := pool.get()
		weight := bitvec.AndInto(vec, p.vec, m.Col(s1[c.cj]))
		members := make([]int32, len(p.members)+1)
		copy(members, p.members)
		members[len(p.members)] = c.cj
		next[i] = &oracleProduct{vec: vec, weight: weight, members: members, owned: true}
	}
	return next
}

// oracleScan scores the extensions of hopefuls[offset], [offset+stride],
// ... and returns the top-k among them under the candidate total order. The
// weight-only comparisons against the heap floor are exact despite ties:
// enumeration visits (hi, cj) in strictly ascending order, so a newcomer
// whose weight merely equals the floor is always worse under the total order
// than every incumbent and may be skipped outright.
func oracleScan(m *Matrix, s1 []int, s1Weights []int, hopefuls []*oracleProduct, k, offset, stride int) []oracleCand {
	h := make(oracleHeap, 0, k+1)
	heapMin := func() int32 {
		if len(h) < k {
			return -1
		}
		return h[0].weight
	}
	for hi := offset; hi < len(hopefuls); hi += stride {
		p := hopefuls[hi]
		if int32(p.weight) <= heapMin() {
			break // later hopefuls are lighter still
		}
		for pos := int(p.maxMember()) + 1; pos < len(s1); pos++ {
			// Columns are weight-sorted descending; once the bound falls to
			// the heap floor nothing further in this row can qualify.
			if len(h) == k {
				bound := s1Weights[pos]
				if p.weight < bound {
					bound = p.weight
				}
				if int32(bound) <= heapMin() {
					break
				}
			}
			w := int32(bitvec.AndCount(p.vec, m.Col(s1[pos])))
			if w <= heapMin() {
				continue
			}
			heap.Push(&h, oracleCand{hi: int32(hi), cj: int32(pos), weight: w})
			if len(h) > k {
				heap.Pop(&h)
			}
		}
	}
	return h
}
