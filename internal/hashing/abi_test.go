package hashing

import (
	"encoding/binary"
	"sort"
	"testing"

	"dcstream/internal/stats"
)

// abiInput is the n-byte input the ABI table hashes: byte i is 37*i+11 mod
// 256, so no two words of a stripe are equal and no byte a zero-padded load
// could supply is zero by accident.
func abiInput(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(37*i + 11)
	}
	return b
}

// abiSums pins Sum and Index(·, 1<<22) of abiInput(n). The lengths enter every
// path of Sum: empty, a partial word, exactly one word, a word and a partial
// one, either side of a 16-byte block and of one and two 32-byte stripes, and
// the segment sizes the collectors see (535 and 536 with and without a
// partial tail word, 1460 for an Ethernet-sized segment).
var abiSums = []struct {
	seed  uint64
	n     int
	sum   uint64
	index int
}{
	{0x0, 0, 0x8bbdf6df0c739036, 2289533},
	{0x0, 1, 0xf57680b02b08cab6, 4021664},
	{0x0, 7, 0x283986f380290bd1, 659041},
	{0x0, 8, 0x9cc477e530a28485, 2568477},
	{0x0, 9, 0x5bf81f54b48fb107, 1506823},
	{0x0, 31, 0x5139b5606f79a253, 1330797},
	{0x0, 32, 0x42998cd10c1d9ed8, 1091171},
	{0x0, 33, 0x618e4b501df30c82, 1598354},
	{0x0, 63, 0x09c260c4da9e397b, 159896},
	{0x0, 64, 0xd23e0bd6dd20a211, 3444610},
	{0x0, 65, 0x94e30c3ec2941d8b, 2439363},
	{0x0, 535, 0x88b13a271a066cda, 2239566},
	{0x0, 536, 0xc837a5c64a4f9e42, 3280361},
	{0x0, 1460, 0xc903a9e931792a3d, 3293418},
	{0x1, 0, 0xcf4635ef717b3684, 3395981},
	{0x1, 1, 0x6c9ab5bb0087ab07, 1779373},
	{0x1, 7, 0xd9cd68eee42d4752, 3568474},
	{0x1, 8, 0xd0e6d7661e03659b, 3422645},
	{0x1, 9, 0xd664072cbe478aa2, 3512577},
	{0x1, 31, 0x4d4b81f1b6982e02, 1266400},
	{0x1, 32, 0x77cd43d7cfe4f248, 1962832},
	{0x1, 33, 0x3c35bbe786ef67dc, 986478},
	{0x1, 63, 0x0a6fb2733c96fdc3, 170988},
	{0x1, 64, 0xd701d4de7a8ffe63, 3522677},
	{0x1, 65, 0xd7bd38674ec47f22, 3534670},
	{0x1, 535, 0xb31b49f071e4f67d, 2934482},
	{0x1, 536, 0xd681dbb4e148dddc, 3514486},
	{0x1, 1460, 0x57f18a2de590f85d, 1440866},
	{0xf10f10f1, 0, 0x5817d26c23498777, 1443316},
	{0xf10f10f1, 1, 0x3a82245d15659d99, 958601},
	{0xf10f10f1, 7, 0xa8389331e0746210, 2756132},
	{0xf10f10f1, 8, 0xb88a7c380cd98af3, 3023519},
	{0xf10f10f1, 9, 0x00d5da29f1420c1a, 13686},
	{0xf10f10f1, 31, 0x1a5362df5c96cff5, 431320},
	{0xf10f10f1, 32, 0x1dedf95bceb1b25d, 490366},
	{0xf10f10f1, 33, 0x0943f9bef875841f, 151806},
	{0xf10f10f1, 63, 0x37776708b2e9f2fa, 908761},
	{0xf10f10f1, 64, 0xc093467dd44f2a5f, 3155153},
	{0xf10f10f1, 65, 0xc3b12bc752aa06a2, 3206218},
	{0xf10f10f1, 535, 0x3ff3acf633aae68b, 1047787},
	{0xf10f10f1, 536, 0x1ba6621edb694ddb, 453016},
	{0xf10f10f1, 1460, 0xd8b899b6d5d93652, 3550758},
}

// abiUint64 pins SumUint64, the flow-label and 8-byte-fragment path.
var abiUint64 = []struct{ seed, v, sum uint64 }{
	{0x0, 0x0, 0x75a13b2a2e663bfc},
	{0x0, 0x1, 0x82bd3fd340f5ad35},
	{0x0, 0x123456789abcdef, 0xa9399a9f20ac743a},
	{0x0, 0xffffffffffffffff, 0xd97c61dade7ff85e},
	{0x1, 0x0, 0x7776f57a7b5751cf},
	{0x1, 0x1, 0x351832829c0f13f3},
	{0x1, 0x123456789abcdef, 0x467163562725ab33},
	{0x1, 0xffffffffffffffff, 0x95695e894f300c85},
	{0xf10f10f1, 0x0, 0xae61c7d39f8bbea8},
	{0xf10f10f1, 0x1, 0x8a57eb2780ae47d6},
	{0xf10f10f1, 0x123456789abcdef, 0x562d4b582b2710bf},
	{0xf10f10f1, 0xffffffffffffffff, 0x5b42893179937d77},
}

// TestABI fixes the function's output. In the aligned case the center
// correlates bit positions across routers, so the value of Sum for a given
// (seed, payload) is protocol shared by a whole deployment: a router whose
// hash differs in one case sets bits no other router sets and the common
// content goes unseen, with no error anywhere. A change to this table is a
// fleet-wide flag day and has to be made on purpose.
func TestABI(t *testing.T) {
	for _, c := range abiSums {
		h, in := New(c.seed), abiInput(c.n)
		if got := h.Sum(in); got != c.sum {
			t.Errorf("New(%#x).Sum(abiInput(%d)) = %#016x, pinned %#016x", c.seed, c.n, got, c.sum)
		}
		if got := h.Index(in, 1<<22); got != c.index {
			t.Errorf("New(%#x).Index(abiInput(%d), 1<<22) = %d, pinned %d", c.seed, c.n, got, c.index)
		}
	}
	for _, c := range abiUint64 {
		if got := New(c.seed).SumUint64(c.v); got != c.sum {
			t.Errorf("New(%#x).SumUint64(%#x) = %#016x, pinned %#016x", c.seed, c.v, got, c.sum)
		}
	}
}

// randomPayload returns n bytes drawn from rng a word at a time.
func randomPayload(rng interface{ Uint64() uint64 }, n int) []byte {
	b := make([]byte, (n+7)/8*8)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b[:n]
}

// TestEveryByteCounts flips each bit of a full-size payload in turn: every
// flip must change the sum (a loop that skips a byte, or a tail that is
// dropped, leaves some flips unseen), and over all flips each of the 64 output
// bits must change about half the time.
func TestEveryByteCounts(t *testing.T) {
	h := New(0x5eed)
	for _, n := range []int{536, 541} {
		p := randomPayload(stats.NewRand(uint64(n)), n)
		base := h.Sum(p)
		var flips [64]int
		for i := range p {
			for bit := uint(0); bit < 8; bit++ {
				p[i] ^= 1 << bit
				d := h.Sum(p) ^ base
				p[i] ^= 1 << bit
				if d == 0 {
					t.Fatalf("len %d: flipping bit %d of byte %d does not change the sum", n, bit, i)
				}
				for o := range flips {
					flips[o] += int(d >> uint(o) & 1)
				}
			}
		}
		for o, c := range flips {
			if f := float64(c) / float64(8*n); f < 0.40 || f > 0.60 {
				t.Errorf("len %d: output bit %d flips with frequency %.3f, want [0.40, 0.60]", n, o, f)
			}
		}
	}
}

// TestLengthCounts: a zero-padded tail load makes p and p‖0x00 look alike
// unless the length is mixed in.
func TestLengthCounts(t *testing.T) {
	h := New(3)
	seen := map[uint64]int{}
	for n := 0; n <= 1100; n++ {
		s := h.Sum(make([]byte, n))
		if m, dup := seen[s]; dup {
			t.Fatalf("%d and %d zero bytes hash alike", m, n)
		}
		seen[s] = n
	}
	rng := stats.NewRand(11)
	for _, n := range []int{0, 1, 7, 8, 15, 16, 24, 31, 32, 63, 64, 535, 536} {
		p := randomPayload(rng, n)
		p1 := append(append([]byte{}, p...), 0)
		p2 := append(append([]byte{}, p...), 0, 0)
		a, b, c := h.Sum(p), h.Sum(p1), h.Sum(p2)
		if a == b || b == c || a == c {
			t.Fatalf("len %d: p, p|00 and p|00 00 hash to %#x, %#x, %#x", n, a, b, c)
		}
	}
}

// TestOrderCounts: lanes and stripes that are folded together symmetrically
// make a payload and a rearrangement of it collide.
func TestOrderCounts(t *testing.T) {
	h := New(9)
	swap := func(p []byte, i, j, n int) []byte {
		q := append([]byte{}, p...)
		copy(q[i:i+n], p[j:j+n])
		copy(q[j:j+n], p[i:i+n])
		return q
	}
	rng := stats.NewRand(13)
	for _, n := range []int{64, 96, 536} {
		p := randomPayload(rng, n)
		base := h.Sum(p)
		for _, c := range []struct {
			what    string
			i, j, n int
		}{
			{"words 0 and 2 of a stripe", 0, 16, 8},
			{"words 1 and 3 of a stripe", 8, 24, 8},
			{"words 0 and 1 of a stripe", 0, 8, 8},
			{"the two halves of a stripe", 0, 16, 16},
			{"the two halves of the second stripe", 32, 48, 16},
			{"a half of one stripe and the other half of the next", 0, 48, 16},
			{"two stripes", 0, 32, 32},
		} {
			if h.Sum(swap(p, c.i, c.j, c.n)) == base {
				t.Errorf("len %d: swapping %s leaves the sum unchanged", n, c.what)
			}
		}
		// Each lane handed the other's words throughout: the rearrangement
		// that collides when nothing but position tells the lanes apart.
		q := p
		for o := 0; o+32 <= n; o += 32 {
			q = swap(q, o, o+16, 16)
		}
		if h.Sum(q) == base {
			t.Errorf("len %d: exchanging the halves of every stripe leaves the sum unchanged", n)
		}
	}
}

// TestUniformityFullPayload is TestUniformity at the size the aligned
// collector hashes: 536-byte payloads that differ only in a counter, placed
// where the first stripe, a middle stripe and the tail load it.
func TestUniformityFullPayload(t *testing.T) {
	const bins, n = 64, 64000
	h := New(999)
	base := randomPayload(stats.NewRand(17), 536)
	for _, c := range []struct {
		what string
		put  func(p []byte, i uint32)
	}{
		{"first word", func(p []byte, i uint32) { binary.LittleEndian.PutUint32(p, i) }},
		{"a middle word", func(p []byte, i uint32) { binary.LittleEndian.PutUint32(p[272:], i) }},
		{"the last three bytes", func(p []byte, i uint32) { p[533], p[534], p[535] = byte(i), byte(i>>8), byte(i>>16) }},
	} {
		p := append([]byte{}, base...)
		counts := make([]float64, bins)
		for i := uint32(0); i < n; i++ {
			c.put(p, i)
			counts[h.Index(p, bins)]++
		}
		chi, expected := 0.0, float64(n)/bins
		for _, k := range counts {
			chi += (k - expected) * (k - expected) / expected
		}
		if chi > 110 { // 63 degrees of freedom, as in TestUniformity
			t.Errorf("counter in %s: chi-square %.1f over %d bins", c.what, chi, bins)
		}
	}
}

// TestNoCollisionsAmongRandomPayloads: internal/baseline takes the 64-bit sum
// for the payload's identity, and 2^20 random payloads collide in 64 bits with
// probability 2^-25.
func TestNoCollisionsAmongRandomPayloads(t *testing.T) {
	const n = 1 << 20
	h, rng := New(1), stats.NewRand(19)
	sums := make([]uint64, n)
	p := make([]byte, 536)
	for i := range sums {
		for o := 0; o < len(p); o += 8 {
			binary.LittleEndian.PutUint64(p[o:], rng.Uint64())
		}
		sums[i] = h.Sum(p)
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i] < sums[j] })
	for i := 1; i < n; i++ {
		if sums[i] == sums[i-1] {
			t.Fatalf("two of %d random 536-byte payloads hash to %#x", n, sums[i])
		}
	}
}

// TestSumDoesNotAllocate holds the per-packet path to zero allocations.
func TestSumDoesNotAllocate(t *testing.T) {
	h, p := New(3), abiInput(536)
	if a := testing.AllocsPerRun(100, func() { sink += h.Sum(p) }); a != 0 {
		t.Fatalf("Sum allocates %.0f times per 536-byte payload", a)
	}
}

// sink keeps the benchmarked calls from being optimised away.
var sink uint64

func BenchmarkSum536(b *testing.B) {
	h, p := New(3), abiInput(536)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += h.Sum(p)
	}
}
