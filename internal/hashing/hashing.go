// Package hashing provides the seeded uniform hash family the collection
// modules use to map packet payloads, payload fragments and flow labels to
// bitmap indices. The paper assumes fast hardware hash functions [Ramakrishna
// et al.]; here a software multiply-fold stands in: eight payload bytes a
// step, each step a 64x64->128-bit multiply folded back to 64 bits, two
// independent lanes over 32-byte stripes, a SplitMix-style avalanche finalizer.
// The algorithms need uniformity and seed-independence; a deployment needs
// every router to compute the same function, so the output is fleet-wide ABI,
// pinned value by value in TestABI.
package hashing

import (
	"encoding/binary"
	"math/bits"
)

// Hash64 is a seeded hash over byte slices; New makes one. Distinct seeds give
// effectively independent hash functions: the unaligned collector derives its
// flow-split hash and its fragment hash from one HashSeed that way. (The
// fragment hash itself is one function shared by every array of every router:
// a fragment must land on the same bit in array i of one router and array j of
// another.)
type Hash64 struct {
	// The start state and the two lane keys: SplitMix64's first three outputs
	// from the seed. No constant is fixed, so building a collision (a word that
	// zeroes a multiply's operand, lanes made to cancel) takes knowing the seed.
	s, keyA, keyB uint64
}

// New returns the hash function with the given seed.
func New(seed uint64) Hash64 {
	const golden = 0x9e3779b97f4a7c15
	s, a, b := seed+golden, seed+golden+golden, seed+golden+golden+golden
	return Hash64{s: finalize(s), keyA: finalize(a), keyB: finalize(b)}
}

// fold multiplies x and y to 128 bits and folds the product to 64.
func fold(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return hi ^ lo
}

// Sum returns the 64-bit hash of data under this function.
func (h Hash64) Sum(data []byte) uint64 {
	n := uint64(len(data))
	s := h.s
	if len(data) >= 32 {
		// Two lanes, so consecutive words do not wait on one multiply. The
		// lanes start alike and differ by their keys, which is what keeps a
		// payload from hashing like itself with the lanes' words exchanged.
		a, b := s, s
		for ; len(data) >= 32; data = data[32:] {
			a = fold(binary.LittleEndian.Uint64(data)^h.keyA, binary.LittleEndian.Uint64(data[8:])^a)
			b = fold(binary.LittleEndian.Uint64(data[16:])^h.keyB, binary.LittleEndian.Uint64(data[24:])^b)
		}
		s = a ^ b
	}
	if len(data) >= 16 {
		s = fold(binary.LittleEndian.Uint64(data)^h.keyA, binary.LittleEndian.Uint64(data[8:])^s)
		data = data[16:]
	}
	// The last 0..15 bytes, zero-padded to two words; the length tells the
	// padding from payload zeros.
	var tail [16]byte
	copy(tail[:], data)
	return finalize(fold(binary.LittleEndian.Uint64(tail[:])^h.keyB, binary.LittleEndian.Uint64(tail[8:])^s) ^ n)
}

// SumUint64 hashes a single 64-bit value (a flow label, an 8-byte payload
// fragment) under this function: it equals Sum of the value's eight
// little-endian bytes, without the slice.
func (h Hash64) SumUint64(v uint64) uint64 {
	return finalize(fold(v^h.keyB, h.s) ^ 8)
}

// Index returns Sum(data) reduced to [0, n). n must be positive.
func (h Hash64) Index(data []byte, n int) int {
	if n <= 0 {
		panic("hashing: non-positive range")
	}
	return int(reduce(h.Sum(data), uint64(n)))
}

// IndexUint64 returns SumUint64(v) reduced to [0, n). n must be positive.
func (h Hash64) IndexUint64(v uint64, n int) int {
	if n <= 0 {
		panic("hashing: non-positive range")
	}
	return int(reduce(h.SumUint64(v), uint64(n)))
}

// finalize applies a strong avalanche so that low-entropy inputs (short
// fragments, sequential flow labels) still spread across the whole range.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// reduce maps a 64-bit hash to [0, n) using the multiply-shift trick, which
// is unbiased to within 2^-64 and avoids the modulo's bias and cost.
func reduce(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}
