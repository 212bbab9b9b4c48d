package aligned

import (
	"fmt"
	"math/bits"
	"sort"

	"dcstream/internal/bitvec"
)

// Accumulator accounting constants. They mirror the center's shed ledger
// convention: a deterministic, slightly generous estimate of the Go runtime
// footprint, so the memory budget sees accumulator state the same way it sees
// buffered digests.
const accSlotBytes = 64 // slots map entry + slotRouters element + weight

// initialCapRows is the row capacity columns start with; growth doubles it,
// so a window that ends up with r routers reallocates the arena at most
// ceil(log2(r/64)) times. Capacity is always a whole number of words.
const initialCapRows = 64

// Accumulator maintains the aligned detection state of one window
// incrementally: the column-major matrix and the exact per-column popcounts,
// updated in O(popcount(digest)) per ingested digest instead of rebuilt by a
// full transposition at analyze time. Rows are assigned in arrival order
// ("slots"); the finalize path translates slot indices back to the batch
// path's sorted-router row order, which is valid because the detector's
// outcome is invariant under row permutation (no rule in Detect ever compares
// row indices — only column contents, weights, and column indices).
//
// Every digest applied to one accumulator must have the width the first one
// fixed: the center keeps one accumulator per width. The accumulator is not
// self-synchronizing: the center mutates and reads it under its own mutex.
type Accumulator struct {
	width   int      // bitmap width, fixed by the first applied digest
	rows    int      // used slots
	capRows int      // allocated bits per column (arena capacity)
	words   []uint64 // the arena: column j is the capRows/64 words at j*capRows/64
	weights []int32
	slots   map[int]int // router -> slot
	slotIDs []int       // slot -> router, arrival order
	bytes   int64
}

// NewAccumulator returns an empty accumulator; the first Add fixes the width.
func NewAccumulator() *Accumulator {
	return &Accumulator{slots: map[int]int{}}
}

// Rows returns the number of occupied row slots.
func (a *Accumulator) Rows() int { return a.rows }

// Bytes returns the accounted memory footprint. It moves only by the deltas
// Add returns, so the center's ledger can track it exactly.
func (a *Accumulator) Bytes() int64 { return a.bytes }

func (a *Accumulator) structBytes() int64 {
	if a.width == 0 {
		return 0
	}
	capWords := int64((a.capRows + 63) / 64)
	return int64(a.width)*capWords*8 + // arena words
		int64(a.width)*4 + // weights
		int64(len(a.slotIDs))*accSlotBytes // slot bookkeeping
}

// EstimateAdd returns the byte delta Add(router, bm) would report, without
// mutating anything. RejectNew admission uses this to refuse a digest before
// any state changes.
func (a *Accumulator) EstimateAdd(router int, bm *bitvec.Vector) int64 {
	width, capRows, slotCount := a.width, a.capRows, len(a.slotIDs)
	cur := a.structBytes()
	if width == 0 {
		width, capRows = bm.Len(), initialCapRows
	}
	if _, ok := a.slots[router]; !ok {
		if a.rows == capRows {
			capRows *= 2
		}
		slotCount++
	}
	capWords := int64((capRows + 63) / 64)
	next := int64(width)*capWords*8 +
		int64(width)*4 +
		int64(slotCount)*accSlotBytes
	return next - cur
}

// Add applies one router digest: the router's row slot gets bm's bits and the
// touched columns' popcounts are bumped. Cost is O(popcount(bm)) plus
// amortized arena growth. It returns the accounted byte delta.
func (a *Accumulator) Add(router int, bm *bitvec.Vector) int64 {
	before := a.structBytes()
	if a.width == 0 {
		a.width = bm.Len()
		a.capRows = initialCapRows
		a.words = make([]uint64, a.width*a.capRows/64)
		a.weights = make([]int32, a.width)
	}
	slot, ok := a.slots[router]
	if !ok {
		if a.rows == a.capRows {
			a.grow()
		}
		slot = a.rows
		a.rows++
		a.slots[router] = slot
		a.slotIDs = append(a.slotIDs, router)
	}
	stride, mask := a.capRows/64, uint64(1)<<uint(slot%64)
	for wi, w := range bm.Words() {
		for ; w != 0; w &= w - 1 {
			j := wi*64 + bits.TrailingZeros64(w)
			a.words[j*stride+slot/64] |= mask
			a.weights[j]++
		}
	}
	delta := a.structBytes() - before
	a.bytes += delta
	return delta
}

// Remove retracts a previously applied digest for router (the center's
// replacement path for a resent digest): its bits are cleared and the
// popcounts decremented. The slot stays assigned — the replacement Add reuses
// it, so slot order (and with it the row permutation) is stable across
// replacements. A router that was never applied is ignored.
func (a *Accumulator) Remove(router int, bm *bitvec.Vector) {
	slot, ok := a.slots[router]
	if !ok {
		return
	}
	stride, mask := a.capRows/64, uint64(1)<<uint(slot%64)
	for wi, w := range bm.Words() {
		for ; w != 0; w &= w - 1 {
			j := wi*64 + bits.TrailingZeros64(w)
			if cell := &a.words[j*stride+slot/64]; *cell&mask != 0 {
				*cell &^= mask
				a.weights[j]--
			}
		}
	}
}

// grow doubles the arena row capacity, copying each column's words.
func (a *Accumulator) grow() {
	stride := a.capRows / 64
	next := make([]uint64, 2*len(a.words))
	for j := 0; j < a.width; j++ {
		copy(next[2*j*stride:], a.words[j*stride:(j+1)*stride])
	}
	a.words, a.capRows = next, 2*a.capRows
}

// Matrix returns the accumulated matrix — a view of the arena, rows in slot
// order; do not mutate the accumulator while the detection runs — together
// with the maintained column weights. Callers gate on Rows.
func (a *Accumulator) Matrix() (*Matrix, []int) {
	w := make([]int, a.width)
	a.AddWeightsInto(w)
	return &Matrix{rows: a.rows, cols: a.width, stride: a.capRows / 64, words: a.words}, w
}

// SlotRouters returns the router id occupying each slot, in slot order. The
// slice is shared; treat read-only.
func (a *Accumulator) SlotRouters() []int { return a.slotIDs }

// blit ORs the first nbits of src, whose later bits are zero, into dst
// starting at bit position at: a shifted word copy.
func blit(dst []uint64, at int, src []uint64, nbits int) {
	base, off := at/64, uint(at%64)
	for i := 0; i < (nbits+63)/64; i++ {
		dst[base+i] |= src[i] << off
		if hi := src[i] >> (64 - off); hi != 0 { // a shift by 64 yields 0
			dst[base+i+1] |= hi
		}
	}
}

// StitchSpan builds a sliding-window span's matrix and column weights out of
// its epochs' accumulators, which must agree on width: one allocation, then
// each epoch's word rows are shifted into place below the previous epoch's.
func StitchSpan(accs []*Accumulator) (*Matrix, []int) {
	total := 0
	for _, a := range accs {
		total += a.rows
	}
	m := NewMatrix(total, accs[0].width)
	weights := make([]int, m.cols)
	at := 0
	for _, a := range accs {
		a.AddWeightsInto(weights)
		stride, off := a.capRows/64, uint(at%64)
		for i := 0; i < (a.rows+63)/64; i++ {
			for j, d := 0, at/64+i; j < m.cols; j, d = j+1, d+m.stride {
				w := a.words[j*stride+i]
				m.words[d] |= w << off
				if hi := w >> (64 - off); hi != 0 { // a shift by 64 yields 0
					m.words[d+1] |= hi
				}
			}
		}
		at += a.rows
	}
	return m, weights
}

// BlitInto ORs the first Rows() bits of every column into dst (one vector per
// column, offset at). bench/layers.go only, until ROADMAP item 1; the center
// uses StitchSpan.
func (a *Accumulator) BlitInto(dst []*bitvec.Vector, at int) {
	if len(dst) != a.width {
		panic(fmt.Sprintf("aligned: blit %d columns into %d", a.width, len(dst)))
	}
	for j, d := range dst {
		if at < 0 || at+a.rows > d.Len() {
			panic(fmt.Sprintf("aligned: blit [%d,%d) outside %d-bit destination", at, at+a.rows, d.Len()))
		}
		blit(d.Words(), at, a.words[j*a.capRows/64:], a.rows)
	}
}

// AddWeightsInto adds this accumulator's column weights into dst.
func (a *Accumulator) AddWeightsInto(dst []int) {
	if len(dst) != a.width {
		panic(fmt.Sprintf("aligned: add %d weights into %d", a.width, len(dst)))
	}
	for j, w := range a.weights {
		dst[j] += int(w)
	}
}

// RemapRows rewrites det.Rows through rank (rank[slot] = the row index the
// batch reference assigns to that slot's router) and restores ascending
// order. Everything else in a Detection is row-permutation invariant, so this
// is the entire translation from incremental to batch row space.
func RemapRows(det *Detection, rank []int) {
	for i, r := range det.Rows {
		det.Rows[i] = rank[r]
	}
	sort.Ints(det.Rows)
}
