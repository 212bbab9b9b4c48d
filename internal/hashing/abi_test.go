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
	{0x0, 0, 0xf52a15e9a9b5e89b, 4016773},
	{0x0, 1, 0x97a987310a3efe10, 2484833},
	{0x0, 7, 0x00c4d206d70caf4f, 12596},
	{0x0, 8, 0x776dd53a452bc201, 1956725},
	{0x0, 9, 0x2730dd08ad0ceb6f, 642103},
	{0x0, 31, 0x042d910bf830afb7, 68452},
	{0x0, 32, 0x4efb47a77e7c0ce2, 1294033},
	{0x0, 33, 0xd56d42c36c1b7b48, 3496784},
	{0x0, 63, 0x01fa42a0b6fcd59b, 32400},
	{0x0, 64, 0x30637427ed5be581, 792797},
	{0x0, 65, 0xad21af62cdbfba11, 2836587},
	{0x0, 535, 0x147b02082f0e441c, 335552},
	{0x0, 536, 0x7bb1d6242273558c, 2026613},
	{0x0, 1460, 0xf39e6a602314514f, 3991450},
	{0x1, 0, 0x2e541971216cda38, 759046},
	{0x1, 1, 0xe1e7f2da8fe8ee47, 3701244},
	{0x1, 7, 0x743a57d506416d02, 1904277},
	{0x1, 8, 0x08ea9d55b1fa52be, 146087},
	{0x1, 9, 0xc3d2e374c08dbb54, 3208376},
	{0x1, 31, 0x17cba925e79cc67e, 389866},
	{0x1, 32, 0x8c95d54f1c2d0ee4, 2303349},
	{0x1, 33, 0x0f16eae26b5eab91, 247226},
	{0x1, 63, 0xc451c55d8f9a87bf, 3216497},
	{0x1, 64, 0x490f4e5ed22c2ff3, 1197011},
	{0x1, 65, 0xcb3fae8b5cda1f72, 3330027},
	{0x1, 535, 0x944219069cedc8a6, 2429062},
	{0x1, 536, 0x17785e666bcec32d, 384535},
	{0x1, 1460, 0x19affa221c9964b9, 420862},
	{0xf10f10f1, 0, 0x7357392688ea0b51, 1889742},
	{0xf10f10f1, 1, 0x7de950143f666185, 2062932},
	{0xf10f10f1, 7, 0xff11bf823f585254, 4179055},
	{0xf10f10f1, 8, 0xcc876622312bf06d, 3351001},
	{0xf10f10f1, 9, 0x524107e1bc0ad9c2, 1347649},
	{0xf10f10f1, 31, 0x9ab5c4a3d2535cc8, 2534769},
	{0xf10f10f1, 32, 0x2f26e31df9070502, 772536},
	{0xf10f10f1, 33, 0xa91490c2531c1d25, 2770212},
	{0xf10f10f1, 63, 0x2cfbfecdf1061015, 737023},
	{0xf10f10f1, 64, 0xf0b3f314c6f0454d, 3943676},
	{0xf10f10f1, 65, 0xd40954253d59f234, 3474005},
	{0xf10f10f1, 535, 0x49178810cfbc47c6, 1197538},
	{0xf10f10f1, 536, 0x919b33aed622f1f6, 2385612},
	{0xf10f10f1, 1460, 0xb985377d56bdf9ca, 3039565},
}

// abiUint64 pins SumUint64, the flow-label and 8-byte-fragment path.
var abiUint64 = []struct{ seed, v, sum uint64 }{
	{0x0, 0x0, 0x813f0174a2367c13},
	{0x0, 0x1, 0x5ca6bbcbb1e85355},
	{0x0, 0x123456789abcdef, 0xd78b5e1386861b93},
	{0x0, 0xffffffffffffffff, 0x9795737c4a2dacd5},
	{0x1, 0x0, 0x1bc426ae44534d76},
	{0x1, 0x1, 0x9b640a2abd293693},
	{0x1, 0x123456789abcdef, 0x3a3f83c4047319c8},
	{0x1, 0xffffffffffffffff, 0x450df4ef4140d26c},
	{0xf10f10f1, 0x0, 0x288df06f2b02f69e},
	{0xf10f10f1, 0x1, 0x15c797edb2840478},
	{0xf10f10f1, 0x123456789abcdef, 0xe1a112ece0d843d3},
	{0xf10f10f1, 0xffffffffffffffff, 0x6a097018f8a9ecb1},
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
