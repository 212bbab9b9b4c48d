package aligned

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"dcstream/internal/bitvec"
	"dcstream/internal/stats"
)

// DetectorConfig tunes the greedy ASID detectors of §III-B. The zero value
// is not valid; use NaiveConfig or RefinedConfig for the paper's two
// variants, then adjust fields as needed.
type DetectorConfig struct {
	// SubsetSize is n′, the number of heaviest columns forming S₁ in which
	// the core is searched. The naive algorithm uses all n columns; the
	// refined algorithm uses n′ ≈ O(√n) per Theorem 2 (4,000 for n = 4M).
	SubsetSize int
	// Hopefuls is the size of the priority list of heaviest b′-products
	// kept between iterations (the paper keeps O(n) of them). Zero means
	// SubsetSize.
	Hopefuls int
	// MaxIterations bounds the product order b′ (the paper's
	// num_iterations, ≈ b + c). Zero means 64.
	MaxIterations int
	// Gamma is the core-expansion slack γ: a column joins the pattern if
	// it shares at least weight(core)−γ ones with the core (§III-B lines
	// 10–14; "setting γ to 2 or 3 will work very well").
	Gamma int
	// Epsilon is the non-naturally-occurring threshold ε (§III-C). Zero
	// means 1e-3.
	Epsilon float64
	// FlatFactor and DiveFactor implement the termination procedure: the
	// weight-loss curve is "flat" when w_b ≥ FlatFactor·w_{b-1} and the
	// second exponential dive has begun when w_b ≤ DiveFactor·w_{b-1}.
	// Zeros mean 0.80 and 0.65.
	FlatFactor, DiveFactor float64
	// FullTrace makes Detect keep iterating to MaxIterations even after a
	// pattern is detected, so the complete weight-loss curve (Figure 7) is
	// recorded. Detection results are unaffected.
	FullTrace bool
	// Workers is the number of goroutines scanning candidate extensions at
	// each level. Zero means GOMAXPROCS; negative means serial. The result
	// is bit-identical at every worker count: each worker selects its own top
	// k over a strided slice of the hopefuls and the merge resolves ties under
	// the total order (weight desc, hopeful asc, column asc).
	Workers int
}

// NaiveConfig returns the naive O(n² log n) detector configuration for a
// matrix with n columns: search the whole matrix.
func NaiveConfig(n int) DetectorConfig {
	return DetectorConfig{SubsetSize: n, Gamma: 2}
}

// RefinedConfig returns the refined O(n log n) detector configuration:
// search only the subsetSize heaviest columns (Theorem 2 sizes this so the
// pattern's trace inside S₁ stays non-naturally-occurring).
func RefinedConfig(subsetSize int) DetectorConfig {
	return DetectorConfig{SubsetSize: subsetSize, Gamma: 2}
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Hopefuls == 0 {
		c.Hopefuls = c.SubsetSize
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 64
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-3
	}
	if c.FlatFactor == 0 {
		c.FlatFactor = 0.80
	}
	if c.DiveFactor == 0 {
		c.DiveFactor = 0.65
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c DetectorConfig) Validate() error {
	if c.SubsetSize <= 1 {
		return fmt.Errorf("aligned: SubsetSize must exceed 1, got %d", c.SubsetSize)
	}
	if c.Hopefuls < 0 || c.MaxIterations < 0 || c.Gamma < 0 {
		return fmt.Errorf("aligned: negative tuning parameter")
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("aligned: Epsilon %v outside [0,1]", c.Epsilon)
	}
	return nil
}

// Detection is the outcome of running an ASID detector on a matrix.
type Detection struct {
	// Found reports whether a non-naturally-occurring pattern was found.
	Found bool
	// Rows are the routers identified as having seen the common content
	// (the 1-positions of the winning product vector).
	Rows []int
	// CoreCols are the original column indices forming the detected core.
	CoreCols []int
	// Cols is the full identified pattern: the core plus every other
	// column sharing ≥ weight(core)−γ ones with it.
	Cols []int
	// Iterations is the product order b′ at which detection concluded
	// (the plateau end — Figure 7's "right number of iterations").
	Iterations int
	// WeightTrace[i] is the weight of the heaviest (i+1)-product; index 0
	// is the heaviest single column. This is Figure 7's curve.
	WeightTrace []int
}

// hopeful is one entry of a level's hopeful list, an AND of b′ columns of S₁:
// its weight, the last (largest) S₁ position it took in, and the entry of the
// level below it extends (-1 at level 1). Its words sit at the same index of
// the level's flat word array.
type hopeful struct {
	weight, last, parent int32
}

// candidate scores a prospective extension of hopeful hi by column cj.
type candidate struct {
	hi, cj int32
	weight int32
}

// better is the strict total order deciding which candidates survive a full
// top-k list: heavier first, then lower hopeful index, then lower column
// index. No two candidates share (hi, cj), so the order has no ties and the
// kept set is a pure function of the matrix — the same at any worker count.
func (c candidate) better(o candidate) bool {
	if c.weight != o.weight {
		return c.weight > o.weight
	}
	if c.hi != o.hi {
		return c.hi < o.hi
	}
	return c.cj < o.cj
}

// scanner is one scan worker's storage, reused level after level.
type scanner struct {
	count []int32     // candidates seen at each weight, 0..rows
	seen  []candidate // every candidate that beat the floor of its moment, in enumeration order
	top   []candidate // the selection, in final order
}

// logNaturalOccurrence generalizes the paper's equation (1) bound to
// arbitrary bit density: log( C(rows,a)·C(cols,b)·p^{ab} ), the expected
// number of naturally occurring a×b all-1 submatrices in a rows×cols random
// matrix whose entries are 1 with probability p.
func logNaturalOccurrence(rows, cols, a, b int, p float64) float64 {
	return stats.LogChoose(float64(rows), float64(a)) +
		stats.LogChoose(float64(cols), float64(b)) +
		float64(a)*float64(b)*math.Log(p)
}

// Significant reports whether an a×b pattern is non-naturally-occurring at
// level eps in a rows×cols half-full matrix (equation (1) verbatim).
func Significant(rows, cols, a, b int, eps float64) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	return logNaturalOccurrence(rows, cols, a, b, 0.5) <= math.Log(eps)
}

// Detect runs the greedy ASID detector (Figures 5/6) on the matrix.
func Detect(m *Matrix, cfg DetectorConfig) (Detection, error) {
	return DetectWithWeights(m, m.ColumnWeights(), cfg)
}

// DetectWithWeights is Detect with the column weights supplied by the caller.
// The incremental accumulator maintains exact per-column popcounts as digests
// arrive, so finalize skips the full O(n·m/64) popcount sweep; the weights
// must equal m.ColumnWeights() or the screening order (and hence the result)
// is undefined.
func DetectWithWeights(m *Matrix, weights []int, cfg DetectorConfig) (Detection, error) {
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

	// S₁'s columns gathered once, in screening order, wpc words each: with
	// the current level's products this is the scan's whole working set.
	// Level 1 is those columns themselves.
	wpc := (m.rows + 63) / 64
	cols := make([]uint64, len(s1)*wpc)
	colW := make([]int32, len(s1))
	cur := make([]hopeful, len(s1))
	sumW := 0
	for pos, j := range s1 {
		copy(cols[pos*wpc:], m.col(j))
		colW[pos] = int32(weights[j])
		cur[pos] = hopeful{weight: colW[pos], last: int32(pos), parent: -1}
		sumW += weights[j]
	}
	trace := []int{weights[s1[0]]}

	// The S₁ columns are the *heaviest* of the matrix, so their bit density
	// exceeds one half; equation (1) must use the conditioned density or the
	// screening bias masquerades as signal on small instances.
	density := float64(sumW) / float64(len(s1)*m.Rows())
	if density <= 0 || density >= 1 {
		density = 0.5
	}
	logEps := math.Log(cfg.Epsilon)
	score := func(weight int32, order int) float64 {
		if weight == 0 {
			return math.Inf(1)
		}
		return logNaturalOccurrence(m.Rows(), cfg.SubsetSize, int(weight), order, density)
	}

	// Track the most significant (least naturally occurring) product across
	// all levels; the weight-loss plateau ends exactly where this score is
	// minimized, which is the paper's "right number of iterations". Its words
	// are copied out, because a level's words are overwritten two levels on;
	// its members are read back through the parent links at the end.
	levels := [][]hopeful{cur}
	bestLevel, bestScore := 0, score(cur[0].weight, 1)
	best := append([]uint64(nil), cols[:wpc]...)
	prevW := int(cur[0].weight)
	flatSeen := false
	curWords := cols
	var pingPong [2][]uint64
	scanners := make([]scanner, min(workers, len(s1)))
	for i := range scanners {
		scanners[i].count = make([]int32, m.rows+1)
	}

	for level := 2; level <= cfg.MaxIterations; level++ {
		cands := topExtensions(scanners, cfg.Hopefuls, cur, curWords, cols, colW, wpc)
		if len(cands) == 0 {
			break
		}
		// Materialize the survivors, in final order (heaviest first, ties
		// already resolved by the total order), into the buffer the level
		// before last no longer needs.
		if pingPong[level%2] == nil {
			pingPong[level%2] = make([]uint64, cfg.Hopefuls*wpc)
		}
		next, nextWords := make([]hopeful, len(cands)), pingPong[level%2]
		for i, c := range cands {
			next[i] = hopeful{weight: c.weight, last: c.cj, parent: c.hi}
			for x := 0; x < wpc; x++ {
				nextWords[i*wpc+x] = curWords[int(c.hi)*wpc+x] & cols[int(c.cj)*wpc+x]
			}
		}
		cur, curWords = next, nextWords
		levels = append(levels, cur)
		w := int(cur[0].weight)
		trace = append(trace, w)

		if s := score(cur[0].weight, level); s < bestScore {
			bestScore, bestLevel = s, level-1
			copy(best, curWords[:wpc])
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
	det.Found = true
	det.Iterations = bestLevel + 1
	for x, w := range best {
		for ; w != 0; w &= w - 1 {
			det.Rows = append(det.Rows, x*64+bits.TrailingZeros64(w))
		}
	}
	// The concluded product heads its level; its members are the last
	// positions along its parent links.
	inCore := make(map[int]bool, det.Iterations)
	for l, i := bestLevel, int32(0); l >= 0; l-- {
		h := levels[l][i]
		det.CoreCols = append(det.CoreCols, s1[h.last])
		inCore[s1[h.last]] = true
		i = h.parent
	}
	sort.Ints(det.CoreCols)

	// Expansion (lines 10–14 of Figure 6): any column sharing at least
	// weight(core)−γ ones with the core vector joins the pattern.
	thresh := int(levels[bestLevel][0].weight) - cfg.Gamma
	if thresh < 1 {
		thresh = 1
	}
	det.Cols = append(det.Cols, det.CoreCols...)
	for j := 0; j < n; j++ {
		if inCore[j] {
			continue
		}
		if bitvec.AndCountWords(best, m.col(j)) >= thresh {
			det.Cols = append(det.Cols, j)
		}
	}
	sort.Ints(det.Cols)
	return det, nil
}

// topColumns selects the k heaviest column indices, descending by weight with
// ascending-index tie-break — exactly the prefix the full deterministic sort
// would produce. A size-k min-heap (rooted at the *worst* retained column)
// scans the weights once; columns beat the root under the same total order
// the sort used, so the selection is bit-identical to order[:k].
func topColumns(weights []int, k int) []int {
	better := func(a, b int) bool { // does column a outrank column b?
		if weights[a] != weights[b] {
			return weights[a] > weights[b]
		}
		return a < b
	}
	heap := make([]int, 0, k)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(heap) && better(heap[worst], heap[l]) {
				worst = l
			}
			if r < len(heap) && better(heap[worst], heap[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	for j := 0; j < len(weights); j++ {
		if len(heap) < k {
			heap = append(heap, j)
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !better(heap[parent], heap[i]) {
					break
				}
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			}
			continue
		}
		if better(j, heap[0]) {
			heap[0] = j
			siftDown(0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return better(heap[i], heap[j]) })
	return heap
}

// topExtensions generates the next level of hopefuls: the k heaviest
// (b′+1)-products v·w with v a current hopeful and w a column of S₁ beyond v's
// largest member (each column set is enumerated exactly once, in ascending
// member order), heaviest first under the candidate total order. The result
// aliases the scanners' storage.
//
// With more than one scanner the candidate scan fans out over strided slices
// of the hopefuls, each worker selecting its own top k. A strided slice of a
// weight-descending list is itself weight-descending, so every pruning rule
// stays valid per worker, and the union of per-worker top-k sets is a
// superset of the global top-k — merging, sorting under the candidate total
// order, and truncating therefore yields exactly the serial result.
func topExtensions(scs []scanner, k int, cur []hopeful, curWords, cols []uint64, colW []int32, wpc int) []candidate {
	workers := min(len(scs), len(cur))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scs[w].scan(k, cur, curWords, cols, colW, wpc, w, workers)
		}(w)
	}
	scs[0].scan(k, cur, curWords, cols, colW, wpc, 0, workers)
	wg.Wait()
	if workers == 1 {
		return scs[0].top
	}
	for _, sc := range scs[1:workers] {
		scs[0].top = append(scs[0].top, sc.top...)
	}
	slices.SortFunc(scs[0].top, func(a, b candidate) int {
		if a.better(b) {
			return -1
		}
		return 1
	})
	return scs[0].top[:min(k, len(scs[0].top))]
}

// scan scores the extensions of cur[offset], cur[offset+stride], ... and
// leaves the top k among them in sc.top, in order. Cur and S₁ are
// weight-sorted, so the scan prunes with the bound
// weight(v·w) ≤ min(weight(v), weight(w)) against the floor: the weight of the
// k-th best candidate so far, which a count per weight tracks (a weight never
// exceeds the row count). The weight-only comparisons are exact despite ties:
// enumeration visits (hi, cj) in strictly ascending order, so a newcomer whose
// weight merely equals the floor is worse under the total order than k
// candidates already seen and may be skipped outright. For the same reason the
// selection needs neither heap nor sort: it is everything heavier than the
// final floor plus the earliest-seen at the floor, and a stable counting sort
// by weight of a list already in (hi, cj) order is the total order.
func (sc *scanner) scan(k int, cur []hopeful, curWords, cols []uint64, colW []int32, wpc, offset, stride int) {
	clear(sc.count)
	seen := sc.seen[:0]
	floor, above := int32(-1), 0 // above counts seen candidates heavier than floor; it stays below k
	for hi := offset; hi < len(cur); hi += stride {
		p := cur[hi]
		if p.weight <= floor {
			break // later hopefuls are lighter still
		}
		pw := curWords[hi*wpc : (hi+1)*wpc]
		for pos := int(p.last) + 1; pos < len(colW); pos++ {
			// Columns are weight-sorted descending; once the bound falls to
			// the floor nothing further in this row can qualify.
			if min(colW[pos], p.weight) <= floor {
				break
			}
			w := int32(bits.OnesCount64(pw[0] & cols[pos*wpc]))
			for x := 1; x < wpc; x++ {
				w += int32(bits.OnesCount64(pw[x] & cols[pos*wpc+x]))
			}
			if w <= floor {
				continue
			}
			seen = append(seen, candidate{hi: int32(hi), cj: int32(pos), weight: w})
			sc.count[w]++
			for above++; above >= k; above -= int(sc.count[floor]) {
				floor++
			}
		}
		if len(seen) > 8*k { // what fell below the floor is out for good
			kept := seen[:0]
			for _, c := range seen {
				if c.weight >= floor {
					kept = append(kept, c)
				}
			}
			seen = kept
		}
	}
	sc.seen = seen
	// Each weight above the floor gets its run of the output, heaviest first;
	// the floor's own run is whatever room is left.
	at := int32(0)
	for w := len(sc.count) - 1; w > int(floor); w-- {
		sc.count[w], at = at, at+sc.count[w]
	}
	sc.top = slices.Grow(sc.top[:0], k)[:min(k, len(seen))]
	for _, c := range seen {
		if c.weight > floor {
			sc.top[sc.count[c.weight]] = c
			sc.count[c.weight]++
		} else if c.weight == floor && int(at) < len(sc.top) {
			sc.top[at] = c
			at++
		}
	}
}
