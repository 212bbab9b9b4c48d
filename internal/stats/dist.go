package stats

import "math"

// Thin aliases so rng.go reads cleanly without importing math twice.
func exp(x float64) float64  { return math.Exp(x) }
func sqrt(x float64) float64 { return math.Sqrt(x) }

// logFactSize bounds the precomputed log-factorial table: large enough for
// every digest-geometry argument (array rows are hundreds of bits, subsets
// thousands), small enough to stay negligible resident memory (512 KiB).
const logFactSize = 1 << 16

// logFact[i] = Lgamma(i+1) = log i!. The hypergeometric λ-threshold search
// evaluates LogChoose thousands of times per fresh analysis center before the
// per-center memo warms, and profiled as almost entirely Lgamma time; the
// table turns those calls into array lookups. Populated at init with the same
// math.Lgamma the fallback uses, so a table hit is bit-identical to a miss —
// thresholds and verdicts do not move.
var logFact [logFactSize]float64

func init() {
	for i := range logFact {
		logFact[i], _ = math.Lgamma(float64(i) + 1)
	}
}

// logFactorial returns Lgamma(x+1), from the table when x is a small
// non-negative integer (every caller inside the digest pipeline) and from
// math.Lgamma otherwise.
func logFactorial(x float64) float64 {
	if i := int(x); x == float64(i) && i >= 0 && i < logFactSize {
		return logFact[i]
	}
	v, _ := math.Lgamma(x + 1)
	return v
}

// LogChoose returns log C(n, k). It returns -Inf for k < 0 or k > n, and 0
// for the empty products C(n,0) and C(n,n). n may be astronomically large
// (the paper uses C(4_000_000, b)); everything stays in log space.
func LogChoose(n, k float64) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return logFactorial(n) - logFactorial(k) - logFactorial(n-k)
}

// BinomLogPMF returns log P[X = k] for X ~ Binomial(n, p).
func BinomLogPMF(k, n int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(float64(n), float64(k)) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomCDF returns P[X <= k] for X ~ Binomial(n, p) — the paper's
// binocdf(k, n, p). The sum runs over the smaller tail to stay O(min(k, n-k))
// and avoid cancellation when the result is extreme.
func BinomCDF(k, n int, p float64) float64 {
	switch {
	case k < 0:
		return 0
	case k >= n:
		return 1
	case p <= 0:
		return 1
	case p >= 1:
		return 0
	}
	mean := float64(n) * p
	if float64(k) >= mean {
		// Upper tail P[X > k] is the small side; sum it and subtract.
		return 1 - binomUpperTail(k, n, p)
	}
	return binomLowerTail(k, n, p)
}

// BinomSurvival returns P[X > k] for X ~ Binomial(n, p).
func BinomSurvival(k, n int, p float64) float64 {
	switch {
	case k < 0:
		return 1
	case k >= n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	mean := float64(n) * p
	if float64(k) >= mean {
		return binomUpperTail(k, n, p)
	}
	return 1 - binomLowerTail(k, n, p)
}

// binomLowerTail sums P[X <= k] directly, using the pmf recurrence
// pmf(i+1)/pmf(i) = (n-i)/(i+1) * p/(1-p). Terms are accumulated in linear
// space scaled by the largest term to keep precision when the tail is tiny.
func binomLowerTail(k, n int, p float64) float64 {
	lp := BinomLogPMF(k, n, p) // largest term in this sum (k below the mean)
	odds := p / (1 - p)
	// Walk downward from k; term ratios pmf(i-1)/pmf(i) = (i)/(n-i+1) / odds.
	sum, term := 1.0, 1.0
	for i := k; i > 0; i-- {
		term *= float64(i) / (float64(n-i+1) * odds)
		sum += term
		if term < 1e-18*sum {
			break
		}
	}
	v := math.Exp(lp) * sum
	if v > 1 {
		v = 1
	}
	return v
}

// binomUpperTail sums P[X > k] for k at or above the mean.
func binomUpperTail(k, n int, p float64) float64 {
	lp := BinomLogPMF(k+1, n, p)
	if math.IsInf(lp, -1) {
		return 0
	}
	odds := p / (1 - p)
	sum, term := 1.0, 1.0
	for i := k + 1; i < n; i++ {
		term *= float64(n-i) / float64(i+1) * odds
		sum += term
		if term < 1e-18*sum {
			break
		}
	}
	v := math.Exp(lp) * sum
	if v > 1 {
		v = 1
	}
	return v
}

// BinomLogSurvival returns log P[X > k] for X ~ Binomial(n, p), staying in
// log space so tails far beyond float64's smallest positive value (needed by
// the unaligned type-I error computations, where C(n,m) factors of e^700
// multiply tails of e^-800) remain representable.
func BinomLogSurvival(k, n int, p float64) float64 {
	switch {
	case k < 0:
		return 0
	case k >= n:
		return math.Inf(-1)
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return 0
	}
	mean := float64(n) * p
	if float64(k) < mean {
		return math.Log(1 - binomLowerTail(k, n, p))
	}
	lp := BinomLogPMF(k+1, n, p)
	if math.IsInf(lp, -1) {
		return math.Inf(-1)
	}
	odds := p / (1 - p)
	sum, term := 1.0, 1.0
	for i := k + 1; i < n; i++ {
		term *= float64(n-i) / float64(i+1) * odds
		sum += term
		if term < 1e-18*sum {
			break
		}
	}
	return lp + math.Log(sum)
}

// BinomUpperQuantile returns the smallest k such that P[X > k] <= tail for
// X ~ Binomial(n, p). Used to set "screening by weight" thresholds: a column
// weight above the returned k is rarer than tail under the null.
func BinomUpperQuantile(n int, p, tail float64) int {
	lo, hi := -1, n // Survival(-1)=1 > tail (for tail<1); Survival(n)=0 <= tail
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if BinomSurvival(mid, n, p) <= tail {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// HyperLogPMF returns log P[X = k] where X counts successes in n draws
// without replacement from a population of N containing K successes —
// the paper's overlap distribution between two rows with i and j ones:
// P[X = k] = C(i,k) C(N-i, j-k) / C(N, j).
func HyperLogPMF(k, N, K, n int) float64 {
	if k < 0 || k > K || k > n || n-k > N-K {
		return math.Inf(-1)
	}
	return LogChoose(float64(K), float64(k)) +
		LogChoose(float64(N-K), float64(n-k)) -
		LogChoose(float64(N), float64(n))
}

// HyperSurvival returns P[X > x] for the hypergeometric above. The sum runs
// over whichever tail is shorter relative to the mean, so extreme
// probabilities (1e-8 and below, as the λ-table computation needs) come out
// without cancellation.
func HyperSurvival(x, N, K, n int) float64 {
	kmax := K
	if n < kmax {
		kmax = n
	}
	kmin := 0
	if n-(N-K) > kmin {
		kmin = n - (N - K)
	}
	if x >= kmax {
		return 0
	}
	if x < kmin {
		return 1
	}
	mean := float64(n) * float64(K) / float64(N)
	if float64(x) >= mean {
		// Sum the (small) upper tail directly.
		s := 0.0
		for k := x + 1; k <= kmax; k++ {
			s += math.Exp(HyperLogPMF(k, N, K, n))
		}
		if s > 1 {
			s = 1
		}
		return s
	}
	// Lower tail is the small side: P[X > x] = 1 - P[X <= x].
	s := 0.0
	for k := kmin; k <= x; k++ {
		s += math.Exp(HyperLogPMF(k, N, K, n))
	}
	if s > 1 {
		s = 1
	}
	return 1 - s
}

// HyperThreshold returns the smallest λ such that P[X > λ] <= pstar, i.e.
// the per-row-pair overlap threshold the unaligned analysis uses to induce
// graph edges with a uniform background probability.
func HyperThreshold(N, K, n int, pstar float64) int {
	kmax := K
	if n < kmax {
		kmax = n
	}
	lo := -1 // Survival(kmin-1) = 1
	hi := kmax
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if HyperSurvival(mid, N, K, n) <= pstar {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
