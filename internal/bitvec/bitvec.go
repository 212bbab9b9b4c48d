// Package bitvec provides dense fixed-length bit vectors optimized for the
// bulk bitwise operations at the heart of the DCS detection algorithms:
// AND-products of matrix columns (aligned case) and overlap counting between
// digest arrays (unaligned case).
//
// A Vector is a sequence of n bits stored in 64-bit words. The zero value is
// an empty vector; use New to allocate one of a given length. All operations
// that combine two vectors require equal lengths and panic otherwise —
// mismatched lengths are always a programming error in this codebase, never
// an input condition.
package bitvec

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. Bits beyond Len() in the final word
// are always zero; every mutating operation maintains this invariant so that
// popcounts never see garbage.
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed vector of n bits. n must be non-negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns an n-bit vector with exactly the given bit positions
// set. Indices out of range panic.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing words for read-only scans (e.g. serialization).
// The final word's high bits beyond Len are zero.
func (v *Vector) Words() []uint64 { return v.words }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is 1.
func (v *Vector) Test(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// TestAndSet sets bit i to 1 and reports whether it was 1 already. It is the
// collectors' per-packet store: one word access where Test then Set is two,
// and small enough to inline, which Set (through check) is not.
func (v *Vector) TestAndSet(i int) bool {
	if uint(i) >= uint(v.n) {
		panic("bitvec: index out of range")
	}
	w, mask := &v.words[uint(i)/wordBits], uint64(1)<<(uint(i)%wordBits)
	was := *w&mask != 0
	*w |= mask
	return was
}

// Reset zeroes every bit, keeping the allocation.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

// OnesCount returns the number of set bits (the paper's "weight"). The loop
// is unrolled four words at a time: popcount chains have no cross-iteration
// dependency, so the wider body keeps the ALUs busy and halves loop overhead
// on the multi-kiloword vectors the unaligned analysis scans.
func (v *Vector) OnesCount() int {
	w := v.words
	c := 0
	i := 0
	for ; i+4 <= len(w); i += 4 {
		c += bits.OnesCount64(w[i]) +
			bits.OnesCount64(w[i+1]) +
			bits.OnesCount64(w[i+2]) +
			bits.OnesCount64(w[i+3])
	}
	for ; i < len(w); i++ {
		c += bits.OnesCount64(w[i])
	}
	return c
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// And stores the bitwise AND of a and b into v (v may alias either operand).
func (v *Vector) And(a, b *Vector) {
	a.sameLen(b)
	v.sameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
}

// Or stores the bitwise OR of a and b into v (v may alias either operand).
func (v *Vector) Or(a, b *Vector) {
	a.sameLen(b)
	v.sameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
}

// AndCount returns the popcount of a AND b without materializing the result.
// This is the hot path of the unaligned analysis (pairwise row correlation);
// like OnesCount it runs four words per iteration.
func AndCount(a, b *Vector) int {
	a.sameLen(b)
	return AndCountWords(a.words, b.words)
}

// AndCountWords is AndCount over bare words: the popcount of aw AND the first
// len(aw) words of bw. The tracker and the aligned matrix keep their rows in
// flat arrays and call it on sub-slices.
func AndCountWords(aw, bw []uint64) int {
	bw = bw[:len(aw)]
	c := 0
	i := 0
	for ; i+4 <= len(aw); i += 4 {
		c += bits.OnesCount64(aw[i]&bw[i]) +
			bits.OnesCount64(aw[i+1]&bw[i+1]) +
			bits.OnesCount64(aw[i+2]&bw[i+2]) +
			bits.OnesCount64(aw[i+3]&bw[i+3])
	}
	for ; i < len(aw); i++ {
		c += bits.OnesCount64(aw[i] & bw[i])
	}
	return c
}

// AndCountAtLeast reports whether popcount(a AND b) >= t, giving up on the
// exact count: it checks the running total after every unrolled block and
// returns as soon as the threshold is crossed. The unaligned correlation
// pass only ever compares the overlap against a λ threshold, so on
// correlated row pairs — where the common content concentrates ones early —
// this exits after a fraction of the words. t <= 0 is trivially true.
func AndCountAtLeast(a, b *Vector, t int) bool {
	a.sameLen(b)
	if t <= 0 {
		return true
	}
	aw := a.words
	bw := b.words[:len(aw)]
	c := 0
	i := 0
	for ; i+4 <= len(aw); i += 4 {
		c += bits.OnesCount64(aw[i]&bw[i]) +
			bits.OnesCount64(aw[i+1]&bw[i+1]) +
			bits.OnesCount64(aw[i+2]&bw[i+2]) +
			bits.OnesCount64(aw[i+3]&bw[i+3])
		if c >= t {
			return true
		}
	}
	for ; i < len(aw); i++ {
		c += bits.OnesCount64(aw[i] & bw[i])
	}
	return c >= t
}

// AndInto computes dst = a AND b and returns dst's popcount in one pass,
// which the aligned product iteration uses to score hopefuls while building
// them. Unrolled like AndCount.
func AndInto(dst, a, b *Vector) int {
	a.sameLen(b)
	dst.sameLen(a)
	aw := a.words
	bw := b.words[:len(aw)]
	dw := dst.words[:len(aw)]
	c := 0
	i := 0
	for ; i+4 <= len(aw); i += 4 {
		w0 := aw[i] & bw[i]
		w1 := aw[i+1] & bw[i+1]
		w2 := aw[i+2] & bw[i+2]
		w3 := aw[i+3] & bw[i+3]
		dw[i], dw[i+1], dw[i+2], dw[i+3] = w0, w1, w2, w3
		c += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(aw); i++ {
		w := aw[i] & bw[i]
		dw[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether a and b have identical length and bits.
func Equal(a, b *Vector) bool {
	if a.n != b.n {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the positions of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.OnesCount())
	for wi, w := range v.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+tz)
			w &= w - 1
		}
	}
	return out
}

// sparseFillCutoff is the density below which FillRandom switches from the
// per-bit Bernoulli loop to geometric gap skipping. At p = 0.1 the skip path
// draws ~0.1 uniforms per bit instead of 1; above it the constant factor of
// the log evaluation stops paying for itself.
const sparseFillCutoff = 0.1

// FillRandom sets each bit to 1 independently with probability p, using the
// caller-supplied uniform source (a func returning uniform float64 in [0,1)).
// Used by Monte-Carlo matrix generation.
//
// For p below sparseFillCutoff the fill jumps directly between set bits by
// sampling the geometric gap distribution (one uniform per *set* bit instead
// of one per bit), so sparse fills cost O(p·n) draws. The marginal law of
// every bit is unchanged, but the mapping from the uniform stream to bit
// positions differs from the dense path — callers sharing one seeded source
// across calls get a different (still deterministic) vector than the per-bit
// loop would produce.
func (v *Vector) FillRandom(p float64, uniform func() float64) {
	v.Reset()
	if p <= 0 {
		return
	}
	if p >= 1 {
		for i := range v.words {
			v.words[i] = ^uint64(0)
		}
		v.maskTail()
		return
	}
	if p < sparseFillCutoff {
		// Geometric skipping: the gap before the next set bit is
		// floor(log(1-u)/log(1-p)) zeros, by inversion of the geometric CDF.
		logq := math.Log1p(-p) // log(1-p) < 0
		i := -1
		for {
			f := math.Log1p(-uniform()) / logq
			if f >= float64(v.n) { // jump past the end from any position
				return
			}
			i += int(f) + 1
			if i >= v.n {
				return
			}
			v.words[i/wordBits] |= 1 << uint(i%wordBits)
		}
	}
	for i := 0; i < v.n; i++ {
		if uniform() < p {
			v.words[i/wordBits] |= 1 << uint(i%wordBits)
		}
	}
}

// FillRandomHalf sets each bit to an independent fair coin flip using a
// 64-bit word source directly; ~64x faster than FillRandom(0.5, ...) and the
// common case for the paper's half-full bitmaps.
func (v *Vector) FillRandomHalf(word func() uint64) {
	for i := range v.words {
		v.words[i] = word()
	}
	v.maskTail()
}

func (v *Vector) maskTail() {
	if rem := v.n % wordBits; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// String renders the vector as a 0/1 string, least index first, capped with
// an ellipsis for long vectors (debug aid).
func (v *Vector) String() string {
	const maxRender = 128
	var sb strings.Builder
	n := v.n
	trunc := false
	if n > maxRender {
		n, trunc = maxRender, true
	}
	for i := 0; i < n; i++ {
		if v.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&sb, "… (%d bits, weight %d)", v.n, v.OnesCount())
	}
	return sb.String()
}
