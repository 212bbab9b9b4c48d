package bitvec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// naiveAndCount is the reference single-word loop the unrolled kernels must
// agree with.
func naiveAndCount(a, b *Vector) int {
	c := 0
	for i := range a.words {
		c += bits.OnesCount64(a.words[i] & b.words[i])
	}
	return c
}

func naiveOnesCount(v *Vector) int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// kernelLengths covers the unroll boundaries: empty, sub-word, exact word
// multiples, exact 4-word blocks, and every tail residue class, plus a long
// vector.
var kernelLengths = []int{0, 1, 63, 64, 65, 127, 128, 191, 192, 255, 256, 257, 300, 319, 320, 321, 448, 512, 513, 4096, 4099}

func TestKernelsAgreeWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range kernelLengths {
		for trial := 0; trial < 8; trial++ {
			a, b := New(n), New(n)
			a.FillRandomHalf(rng.Uint64)
			b.FillRandomHalf(rng.Uint64)
			want := naiveAndCount(a, b)
			if got := AndCount(a, b); got != want {
				t.Fatalf("n=%d: AndCount=%d naive=%d", n, got, want)
			}
			if got := a.OnesCount(); got != naiveOnesCount(a) {
				t.Fatalf("n=%d: OnesCount=%d naive=%d", n, got, naiveOnesCount(a))
			}
			dst := New(n)
			if got := AndInto(dst, a, b); got != want {
				t.Fatalf("n=%d: AndInto count=%d want %d", n, got, want)
			}
			and := New(n)
			and.And(a, b)
			if !Equal(dst, and) {
				t.Fatalf("n=%d: AndInto result differs from And", n)
			}
		}
	}
}

// TestAndCountRows holds the row kernel to a bit-by-bit count at every width
// its chunking treats differently (1, the 4- and 8-word chunks and every tail
// up to 17 words, and two wide rows) and every run length up to 12, over
// all-zero, all-one and random words.
func TestAndCountRows(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	fills := map[string]func() uint64{
		"zero":   func() uint64 { return 0 },
		"one":    func() uint64 { return ^uint64(0) },
		"random": rng.Uint64,
	}
	widths := []int{64, 128}
	for n := 1; n <= 17; n++ {
		widths = append(widths, n)
	}
	for _, n := range widths {
		for _, fill := range []string{"zero", "one", "random"} {
			a := make([]uint64, n)
			rows := make([]uint64, 12*n)
			for i := range a {
				a[i] = fills["random"]()
			}
			for i := range rows {
				rows[i] = fills[fill]()
			}
			for runs := 0; runs <= 12; runs++ {
				out := make([]int32, runs)
				for j := range out {
					out[j] = -1
				}
				AndCountRows(a, rows, out)
				for j, got := range out {
					want := 0
					for b := 0; b < 64*n; b++ {
						if a[b/64]>>(b%64)&1 == 1 && rows[j*n+b/64]>>(b%64)&1 == 1 {
							want++
						}
					}
					if int(got) != want {
						t.Fatalf("%d words, %s rows, run %d: out[%d]=%d, want %d", n, fill, runs, j, got, want)
					}
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%d words: rows one word short of the run did not panic", n)
					}
				}()
				AndCountRows(a, rows[:3*n-1], make([]int32, 3))
			}()
		}
	}
}

func TestAndCountAtLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range kernelLengths {
		for trial := 0; trial < 8; trial++ {
			a, b := New(n), New(n)
			a.FillRandomHalf(rng.Uint64)
			b.FillRandomHalf(rng.Uint64)
			count := naiveAndCount(a, b)
			// The decision must match an exact count at every threshold
			// around the true value and at the degenerate ends.
			for _, thr := range []int{-1, 0, 1, count - 1, count, count + 1, n, n + 1} {
				want := count >= thr || thr <= 0
				if got := AndCountAtLeast(a, b, thr); got != want {
					t.Fatalf("n=%d count=%d t=%d: got %v want %v", n, count, thr, got, want)
				}
			}
		}
	}
}

func TestAndCountAtLeastEarlyHit(t *testing.T) {
	// All the overlap sits in the first block: the kernel must report true
	// regardless of what the (never-visited) rest of the vector holds.
	a := New(4096)
	b := New(4096)
	for i := 0; i < 64; i++ {
		a.Set(i)
		b.Set(i)
	}
	if !AndCountAtLeast(a, b, 64) {
		t.Fatal("threshold equal to early overlap not detected")
	}
	if AndCountAtLeast(a, b, 65) {
		t.Fatal("threshold above total overlap reported reached")
	}
}

func TestFillRandomSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 1 << 15
	// Marginal sanity at several sparse densities: the realized weight must
	// sit within a generous binomial band, and the tail word must stay clean.
	for _, p := range []float64{0.001, 0.01, 0.05, 0.099} {
		v := New(n + 13) // force a ragged tail word
		v.FillRandom(p, rng.Float64)
		mean := p * float64(n+13)
		if w := float64(v.OnesCount()); w < mean/3-10 || w > mean*3+10 {
			t.Fatalf("p=%v: weight %v, expected ≈%v", p, w, mean)
		}
		words := v.Words()
		if tail := words[len(words)-1] >> uint((n+13)%64); tail != 0 {
			t.Fatalf("p=%v: tail bits %b beyond Len", p, tail)
		}
	}
	// Determinism: the same uniform stream yields the same vector.
	mk := func() *Vector {
		r := rand.New(rand.NewSource(99))
		v := New(5000)
		v.FillRandom(0.02, r.Float64)
		return v
	}
	if !Equal(mk(), mk()) {
		t.Fatal("sparse fill not deterministic for a fixed stream")
	}
	// A refill must reset prior contents (the skip path writes sparsely).
	v := New(1000)
	v.FillRandom(0.5, rng.Float64)
	v.FillRandom(0.01, rng.Float64)
	if v.OnesCount() > 100 {
		t.Fatalf("sparse refill kept stale dense bits: weight %d", v.OnesCount())
	}
}

func TestFillRandomSparseDegenerateUniform(t *testing.T) {
	// uniform() == 0 forever means every gap inverts to the minimal skip;
	// the fill must still terminate and set every bit (geometric inversion
	// of u=0 is gap 0).
	v := New(300)
	v.FillRandom(0.05, func() float64 { return 0 })
	if v.OnesCount() != 300 {
		t.Fatalf("degenerate stream: weight %d want 300", v.OnesCount())
	}
	// A stream pinned near 1 yields huge skips: no bits, no hang, no panic.
	v.FillRandom(0.05, func() float64 { return 0.999999999999 })
	if v.OnesCount() > 2 {
		t.Fatalf("near-one stream: weight %d", v.OnesCount())
	}
}

func benchPair(n int) (*Vector, *Vector) {
	rng := rand.New(rand.NewSource(3))
	x, y := New(n), New(n)
	x.FillRandomHalf(rng.Uint64)
	y.FillRandomHalf(rng.Uint64)
	return x, y
}

func BenchmarkOnesCount1024(b *testing.B) {
	x, _ := benchPair(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.OnesCount()
	}
}

func BenchmarkAndCount8192(b *testing.B) {
	x, y := benchPair(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCount(x, y)
	}
}

// BenchmarkAndCountRows counts a run of 64 rows against one at the widths the
// center's loops use: one word (mixed-udp's 32-row columns), four (small-udp's
// 256-row columns) and eight (a 512-bit unaligned array).
func BenchmarkAndCountRows(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dw", n), func(b *testing.B) {
			a, rows, out := make([]uint64, n), make([]uint64, 64*n), make([]int32, 64)
			for i := range a {
				a[i] = rng.Uint64()
			}
			for i := range rows {
				rows[i] = rng.Uint64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AndCountRows(a, rows, out)
			}
		})
	}
}

// Hit: the threshold is crossed within the first block, the common case for
// correlated rows whose shared content fills the early words.
func BenchmarkAndCountAtLeastHit(b *testing.B) {
	x, y := benchPair(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCountAtLeast(x, y, 32)
	}
}

// Miss: the threshold is never reached, so the kernel scans every word —
// the worst case must not be slower than plain AndCount by more than the
// per-block compare.
func BenchmarkAndCountAtLeastMiss(b *testing.B) {
	x, y := benchPair(8192)
	t := AndCount(x, y) + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCountAtLeast(x, y, t)
	}
}

func BenchmarkFillRandomSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	v := New(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.FillRandom(0.01, rng.Float64)
	}
}

func BenchmarkFillRandomDense(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	v := New(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.FillRandom(0.3, rng.Float64)
	}
}
