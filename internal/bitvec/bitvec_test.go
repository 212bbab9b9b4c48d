package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len=%d want %d", v.Len(), n)
		}
		if v.OnesCount() != 0 {
			t.Fatalf("new vector of %d bits has weight %d", n, v.OnesCount())
		}
	}
}

func TestSetTestClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		if v.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		v.Set(i)
		if !v.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := v.OnesCount(); got != 7 {
		t.Fatalf("weight=%d want 7", got)
	}
	v.Clear(64)
	if v.Test(64) || v.OnesCount() != 6 {
		t.Fatalf("Clear(64) failed: weight=%d", v.OnesCount())
	}
}

// TestTestAndSet holds the fused form to Test followed by Set, bit for bit,
// and to the same range check: an index inside the last word but past Len
// must not set a tail bit.
func TestTestAndSet(t *testing.T) {
	v, ref := New(130), New(130)
	for _, i := range []int{0, 63, 64, 129, 64, 0, 65} {
		was := ref.Test(i)
		ref.Set(i)
		if got := v.TestAndSet(i); got != was {
			t.Fatalf("TestAndSet(%d) = %v, Test said %v", i, got, was)
		}
		if !Equal(v, ref) {
			t.Fatalf("after TestAndSet(%d) the vector differs from Test+Set", i)
		}
	}
	for _, i := range []int{130, 191, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TestAndSet(%d) on 130 bits did not panic", i)
				}
			}()
			v.TestAndSet(i)
		}()
	}
	if !Equal(v, ref) {
		t.Fatal("a rejected index changed the vector")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, f := range []func(){
		func() { v.Set(10) },
		func() { v.Set(-1) },
		func() { v.Test(10) },
		func() { v.Clear(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	AndCount(a, b)
}

func TestFromIndicesAndIndices(t *testing.T) {
	idx := []int{3, 64, 65, 199}
	v := FromIndices(200, idx)
	got := v.Indices()
	if len(got) != len(idx) {
		t.Fatalf("Indices len=%d want %d", len(got), len(idx))
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Indices[%d]=%d want %d", i, got[i], idx[i])
		}
	}
}

func TestAndOrAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		ar, br := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
				ar[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
				br[i] = true
			}
		}
		and, or := New(n), New(n)
		and.And(a, b)
		or.Or(a, b)
		wantAnd, wantOr := 0, 0
		for i := 0; i < n; i++ {
			ea, eo := ar[i] && br[i], ar[i] || br[i]
			if and.Test(i) != ea || or.Test(i) != eo {
				t.Fatalf("n=%d bit %d: and=%v want %v, or=%v want %v", n, i, and.Test(i), ea, or.Test(i), eo)
			}
			if ea {
				wantAnd++
			}
			if eo {
				wantOr++
			}
		}
		if AndCount(a, b) != wantAnd {
			t.Fatalf("AndCount=%d want %d", AndCount(a, b), wantAnd)
		}
		dst := New(n)
		if c := AndInto(dst, a, b); c != wantAnd || !Equal(dst, and) {
			t.Fatalf("AndInto count=%d want %d, equal=%v", c, wantAnd, Equal(dst, and))
		}
		if or.OnesCount() != wantOr {
			t.Fatalf("or weight=%d want %d", or.OnesCount(), wantOr)
		}
	}
}

func TestAndAliasing(t *testing.T) {
	a := FromIndices(100, []int{1, 5, 99})
	b := FromIndices(100, []int{5, 99})
	a.And(a, b)
	if got := a.Indices(); len(got) != 2 || got[0] != 5 || got[1] != 99 {
		t.Fatalf("aliased And wrong: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(70, []int{0, 69})
	c := a.Clone()
	c.Set(33)
	if a.Test(33) {
		t.Fatal("Clone shares storage with original")
	}
	if !Equal(a, FromIndices(70, []int{0, 69})) {
		t.Fatal("original mutated")
	}
}

func TestFillRandomHalfTailMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := New(100)
	v.FillRandomHalf(rng.Uint64)
	// Bits [100,128) must be zero so OnesCount is honest.
	if w := v.Words()[1] >> 36; w != 0 {
		t.Fatalf("tail bits not masked: %x", w)
	}
	if c := v.OnesCount(); c < 20 || c > 80 {
		t.Fatalf("suspicious half-fill weight %d/100", c)
	}
}

func TestFillRandomExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := New(77)
	v.FillRandom(0, rng.Float64)
	if v.OnesCount() != 0 {
		t.Fatal("p=0 should leave empty vector")
	}
	v.FillRandom(1, rng.Float64)
	if v.OnesCount() != 77 {
		t.Fatalf("p=1 weight=%d want 77", v.OnesCount())
	}
	// The word-fill fast path must keep the tail invariant: no bits set
	// beyond Len in the final word.
	words := v.Words()
	if tail := words[len(words)-1] >> (77 % 64); tail != 0 {
		t.Fatalf("p=1 fill left tail bits %b beyond Len", tail)
	}
	// p above 1 takes the same fast path.
	v.FillRandom(2.5, rng.Float64)
	if v.OnesCount() != 77 {
		t.Fatalf("p>1 weight=%d want 77", v.OnesCount())
	}
	// Refill resets previous contents.
	v.FillRandom(0, rng.Float64)
	if v.OnesCount() != 0 {
		t.Fatal("FillRandom did not reset")
	}
}

func TestResetKeepsLength(t *testing.T) {
	v := FromIndices(129, []int{0, 64, 128})
	v.Reset()
	if v.OnesCount() != 0 || v.Len() != 129 {
		t.Fatalf("Reset: weight=%d len=%d", v.OnesCount(), v.Len())
	}
}

// Property: for any index sets A, B within range, weight(A AND B) = |A ∩ B|
// and weight(A OR B) = |A ∪ B|.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(aIdx, bIdx []uint16) bool {
		const n = 1 << 16
		am, bm := map[int]bool{}, map[int]bool{}
		a, b := New(n), New(n)
		for _, i := range aIdx {
			a.Set(int(i))
			am[int(i)] = true
		}
		for _, i := range bIdx {
			b.Set(int(i))
			bm[int(i)] = true
		}
		inter, union := 0, len(am)
		for i := range bm {
			if am[i] {
				inter++
			} else {
				union++
			}
		}
		or := New(n)
		or.Or(a, b)
		return AndCount(a, b) == inter && or.OnesCount() == union &&
			a.OnesCount() == len(am) && b.OnesCount() == len(bm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Indices is the exact inverse of FromIndices for sorted unique input.
func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		v := New(n)
		uniq := map[int]bool{}
		for _, i := range raw {
			v.Set(int(i))
			uniq[int(i)] = true
		}
		idx := v.Indices()
		if len(idx) != len(uniq) {
			return false
		}
		for k, i := range idx {
			if !uniq[i] {
				return false
			}
			if k > 0 && idx[k-1] >= i {
				return false // must be strictly ascending
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndCount1024(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := New(1024), New(1024)
	x.FillRandomHalf(rng.Uint64)
	y.FillRandomHalf(rng.Uint64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCount(x, y)
	}
}

func BenchmarkAndInto4M(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := New(1000), New(1000)
	x.FillRandomHalf(rng.Uint64)
	y.FillRandomHalf(rng.Uint64)
	dst := New(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndInto(dst, x, y)
	}
}
