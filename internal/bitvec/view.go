package bitvec

// NewArena returns count zeroed vectors of n bits each, all backed by one
// flat word array. The incremental aligned accumulator keeps thousands of
// short column vectors alive per window; carving them from a single
// allocation keeps them cache-adjacent and cuts the allocator traffic of
// per-column make calls. Each vector's word slice is capacity-clamped so no
// operation on one column can bleed into its neighbor.
func NewArena(count, n int) []*Vector {
	if count < 0 || n < 0 {
		panic("bitvec: negative arena dimensions")
	}
	wpv := (n + wordBits - 1) / wordBits
	buf := make([]uint64, count*wpv)
	vecs := make([]Vector, count)
	out := make([]*Vector, count)
	for i := range vecs {
		vecs[i] = Vector{words: buf[i*wpv : (i+1)*wpv : (i+1)*wpv], n: n}
		out[i] = &vecs[i]
	}
	return out
}
