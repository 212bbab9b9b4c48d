package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// bruteBinomCDF computes P[X<=k] by direct pmf summation for small n.
func bruteBinomCDF(k, n int, p float64) float64 {
	s := 0.0
	for i := 0; i <= k && i <= n; i++ {
		s += math.Exp(BinomLogPMF(i, n, p))
	}
	return s
}

func TestLogChooseSmall(t *testing.T) {
	cases := []struct {
		n, k float64
		want float64
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 3, 120}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got := math.Exp(LogChoose(c.n, c.k))
		if math.Abs(got-c.want)/c.want > 1e-9 {
			t.Errorf("C(%v,%v)=%v want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogChoose(5, 6), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("out-of-range LogChoose should be -Inf")
	}
}

func TestBinomCDFAgainstBrute(t *testing.T) {
	for _, n := range []int{1, 2, 10, 37, 100} {
		for _, p := range []float64{0.01, 0.3, 0.5, 0.77, 0.99} {
			for k := -1; k <= n+1; k++ {
				got := BinomCDF(k, n, p)
				var want float64
				switch {
				case k < 0:
					want = 0
				case k >= n:
					want = 1
				default:
					want = bruteBinomCDF(k, n, p)
				}
				if math.Abs(got-want) > 1e-10 {
					t.Fatalf("BinomCDF(%d,%d,%v)=%v want %v", k, n, p, got, want)
				}
				gotS := BinomSurvival(k, n, p)
				if math.Abs(gotS-(1-want)) > 1e-10 {
					t.Fatalf("BinomSurvival(%d,%d,%v)=%v want %v", k, n, p, gotS, 1-want)
				}
			}
		}
	}
}

func TestBinomTinyTailsNoCancellation(t *testing.T) {
	// P[X > 900] for Binomial(1000, 0.5): deep tail, should be ~6.7e-153
	// (checked against log-space summation), definitely not 0 and not junk.
	s := BinomSurvival(900, 1000, 0.5)
	if s <= 0 || s > 1e-140 {
		t.Fatalf("deep upper tail = %g, expected tiny positive", s)
	}
	// Symmetric: deep lower tail via CDF should match by p=0.5 symmetry:
	// P[X <= 99] = P[X > 900].
	c := BinomCDF(99, 1000, 0.5)
	if math.Abs(c-s)/s > 1e-6 {
		t.Fatalf("symmetry violated: CDF(99)=%g Survival(900)=%g", c, s)
	}
}

func TestBinomLargeNPaperScale(t *testing.T) {
	// The Fig 12 computation: probability a noise column of 1000 rows is
	// heavier than 550 is 1-binocdf(550,1000,0.5) ≈ 0.00073 (paper §V-A.2).
	got := BinomSurvival(550, 1000, 0.5)
	if math.Abs(got-0.00068) > 3e-4 { // paper rounds; exact value ≈ 6.8e-4
		t.Fatalf("Survival(550,1000,0.5)=%v, expected ≈7e-4", got)
	}
	// Paper quotes 1 - binocdf(7, 30, 0.55) as 0.988; the exact value is
	// ≈0.99958 (the paper's rounding is loose). Assert the exact value and
	// that it is at least the paper's claimed detection probability.
	got = BinomSurvival(7, 30, 0.55)
	if math.Abs(got-0.99958) > 5e-4 || got < 0.988 {
		t.Fatalf("Survival(7,30,0.55)=%v want ≈0.9996", got)
	}
}

func TestBinomUpperQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		tail float64
	}{
		{1000, 0.5, 1e-3}, {1000, 0.5, 1e-8}, {100, 0.1, 0.05}, {10, 0.9, 0.5},
	} {
		k := BinomUpperQuantile(tc.n, tc.p, tc.tail)
		if BinomSurvival(k, tc.n, tc.p) > tc.tail {
			t.Fatalf("quantile %d does not satisfy tail %v", k, tc.tail)
		}
		if k > 0 && BinomSurvival(k-1, tc.n, tc.p) <= tc.tail {
			t.Fatalf("quantile %d not minimal for tail %v", k, tc.tail)
		}
	}
}

func TestHyperPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct{ N, K, n int }{
		{10, 3, 4}, {1024, 512, 512}, {50, 50, 10}, {7, 0, 3},
	} {
		s := 0.0
		for k := 0; k <= tc.n; k++ {
			s += math.Exp(HyperLogPMF(k, tc.N, tc.K, tc.n))
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("hypergeom(N=%d,K=%d,n=%d) sums to %v", tc.N, tc.K, tc.n, s)
		}
	}
}

func TestHyperSurvivalConsistent(t *testing.T) {
	// Survival must equal direct upper-tail summation for a mid-size case.
	N, K, n := 200, 90, 70
	for x := -1; x <= 71; x++ {
		want := 0.0
		for k := x + 1; k <= n; k++ {
			want += math.Exp(HyperLogPMF(k, N, K, n))
		}
		if want > 1 {
			want = 1
		}
		got := HyperSurvival(x, N, K, n)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("HyperSurvival(%d)=%v want %v", x, got, want)
		}
	}
}

func TestHyperThreshold(t *testing.T) {
	// Paper setting: N=1024, rows about half full, p* around 1e-7.
	N, K, n := 1024, 512, 512
	pstar := 1e-7
	lambda := HyperThreshold(N, K, n, pstar)
	if HyperSurvival(lambda, N, K, n) > pstar {
		t.Fatalf("threshold %d exceeds pstar", lambda)
	}
	if HyperSurvival(lambda-1, N, K, n) <= pstar {
		t.Fatalf("threshold %d not minimal", lambda)
	}
	// Mean overlap is 256; a 1e-7 threshold must sit a few sigma above it.
	if lambda <= 256 || lambda > 400 {
		t.Fatalf("implausible λ=%d for mean 256", lambda)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := NewRand(42)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 10}, {1000, 5}, {100, 90}, {1, 1}} {
		s := SampleDistinct(r, tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("len=%d want %d", len(s), tc.k)
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("bad sample %v for n=%d k=%d", s, tc.n, tc.k)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	SampleDistinct(NewRand(1), 3, 4)
}

func TestSampleDistinctUniform(t *testing.T) {
	// Each element of [0,20) should appear in a 5-subset with prob 1/4.
	r := NewRand(99)
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range SampleDistinct(r, 20, 5) {
			counts[v]++
		}
	}
	for v, c := range counts {
		f := float64(c) / trials
		if math.Abs(f-0.25) > 0.02 {
			t.Fatalf("element %d frequency %v, want ≈0.25", v, f)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	r := NewRand(7)
	for _, mean := range []float64{0, 0.5, 4, 25, 100, 5000} {
		const n = 4000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			v := float64(Poisson(r, mean))
			sum += v
			sum2 += v * v
		}
		m := sum / n
		va := sum2/n - m*m
		tol := 5 * math.Sqrt(mean/n+1e-9) * 3
		if math.Abs(m-mean) > tol+0.05 {
			t.Fatalf("Poisson(%v) sample mean %v", mean, m)
		}
		if mean > 1 && math.Abs(va-mean)/mean > 0.25 {
			t.Fatalf("Poisson(%v) sample variance %v", mean, va)
		}
	}
}

func TestBinomialSamplerMoments(t *testing.T) {
	r := NewRand(11)
	for _, tc := range []struct {
		n int64
		p float64
	}{
		{40, 0.3}, {1000000, 1e-5}, {100000, 0.4}, {10, 0}, {10, 1}, {523, 0.9},
	} {
		const trials = 3000
		var sum float64
		for i := 0; i < trials; i++ {
			v := Binomial(r, tc.n, tc.p)
			if v < 0 || v > tc.n {
				t.Fatalf("Binomial out of range: %d", v)
			}
			sum += float64(v)
		}
		mean := float64(tc.n) * tc.p
		sd := math.Sqrt(mean * (1 - tc.p))
		if math.Abs(sum/trials-mean) > 5*sd/math.Sqrt(trials)+0.02 {
			t.Fatalf("Binomial(%d,%v) sample mean %v want %v", tc.n, tc.p, sum/trials, mean)
		}
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(124)
	same := 0
	a = NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds suspiciously correlated: %d/100 equal", same)
	}
}

// Property: CDF is monotone in k and bounded in [0,1].
func TestQuickBinomCDFMonotone(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw%200) + 1
		p := float64(pRaw) / 65536.0
		prev := 0.0
		for k := 0; k <= n; k++ {
			c := BinomCDF(k, n, p)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return math.Abs(prev-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: hypergeometric survival is monotone decreasing in x.
func TestQuickHyperSurvivalMonotone(t *testing.T) {
	f := func(nRaw, kRaw, dRaw uint8) bool {
		N := int(nRaw%100) + 2
		K := int(kRaw) % (N + 1)
		n := int(dRaw) % (N + 1)
		prev := 1.0
		for x := -1; x <= n; x++ {
			s := HyperSurvival(x, N, K, n)
			if s > prev+1e-12 || s < 0 || s > 1 {
				return false
			}
			prev = s
		}
		return prev == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomLogSurvivalMatchesLinear(t *testing.T) {
	// Where the linear-space survival is representable, the log version
	// must agree to high relative precision.
	for _, tc := range []struct {
		k, n int
		p    float64
	}{
		{5, 20, 0.3}, {550, 1000, 0.5}, {0, 10, 0.01}, {900, 1000, 0.5},
	} {
		want := math.Log(BinomSurvival(tc.k, tc.n, tc.p))
		got := BinomLogSurvival(tc.k, tc.n, tc.p)
		if math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
			t.Fatalf("BinomLogSurvival(%d,%d,%v)=%v want %v", tc.k, tc.n, tc.p, got, want)
		}
	}
}

func TestBinomLogSurvivalDeepTail(t *testing.T) {
	// P[X > 300] for Binomial(4465, 1e-5): mean 0.045, so the tail is
	// fantastically small — far below float64's 1e-308 — yet must remain
	// finite and monotone in log space (the Table II regime).
	prev := 0.0
	for _, k := range []int{0, 10, 50, 100, 300} {
		ls := BinomLogSurvival(k, 4465, 1e-5)
		if math.IsInf(ls, -1) || ls > 0 {
			t.Fatalf("k=%d: log survival %v", k, ls)
		}
		if k > 0 && ls >= prev {
			t.Fatalf("log survival not decreasing at k=%d: %v after %v", k, ls, prev)
		}
		prev = ls
	}
	if ls := BinomLogSurvival(300, 4465, 1e-5); ls > -1000 {
		t.Fatalf("deep tail only %v, expected far below -1000", ls)
	}
}

func TestBinomLogSurvivalEdges(t *testing.T) {
	if BinomLogSurvival(-1, 10, 0.5) != 0 {
		t.Fatal("k<0 should give log(1)=0")
	}
	if !math.IsInf(BinomLogSurvival(10, 10, 0.5), -1) {
		t.Fatal("k>=n should give -Inf")
	}
	if !math.IsInf(BinomLogSurvival(5, 10, 0), -1) {
		t.Fatal("p=0 should give -Inf")
	}
	if BinomLogSurvival(5, 10, 1) != 0 {
		t.Fatal("p=1 should give 0")
	}
}
