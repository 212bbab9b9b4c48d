package aligned

import (
	"reflect"
	"sort"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/stats"
)

// accDigests builds one random half-full digest per router, with a planted
// common content across carriers when contentCols is non-empty.
func accDigests(seed uint64, routers, bits int, carriers, contentCols []int) map[int]*bitvec.Vector {
	rng := stats.NewRand(seed)
	out := make(map[int]*bitvec.Vector, routers)
	for r := 0; r < routers; r++ {
		v := bitvec.New(bits)
		v.FillRandomHalf(rng.Uint64)
		out[r] = v
	}
	for _, r := range carriers {
		for _, j := range contentCols {
			out[r].Set(j)
		}
	}
	return out
}

// accReference builds the batch-path matrix (rows in sorted-router order) and
// the slot→batch-row rank table for an arrival order.
func accReference(digests map[int]*bitvec.Vector, arrival []int) (*Matrix, []int) {
	ids := make([]int, 0, len(digests))
	for id := range digests {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rowOf := make(map[int]int, len(ids))
	vecs := make([]*bitvec.Vector, len(ids))
	for i, id := range ids {
		rowOf[id] = i
		vecs[i] = digests[id]
	}
	rank := make([]int, len(arrival))
	for slot, id := range arrival {
		rank[slot] = rowOf[id]
	}
	return FromDigests(vecs), rank
}

// TestAccumulatorMatchesBatchDetection runs the detector on the arena view
// against the batch transposition. At 130 routers the arena's column stride
// (four words) is wider than a column's rows (three), which the level scan's
// gather and the expansion's block count must both respect.
func TestAccumulatorMatchesBatchDetection(t *testing.T) {
	const bits = 1024
	contentCols := []int{3, 99, 512, 700, 701, 888, 1000, 17, 260, 431}
	for _, routers := range []int{40, 130} {
		testAccumulatorMatchesBatchDetection(t, routers, bits, contentCols)
	}
}

func testAccumulatorMatchesBatchDetection(t *testing.T, routers, bits int, contentCols []int) {
	// More than half the fleet carries the content, so content columns rise
	// clear of the binomial noise band and the greedy screening keeps them.
	carriers := make([]int, 0, routers)
	for r := 0; r < routers; r++ {
		if r%3 != 0 || r < 12 {
			carriers = append(carriers, r)
		}
	}
	for _, planted := range []bool{true, false} {
		cols := contentCols
		if !planted {
			cols = nil
		}
		digests := accDigests(77, routers, bits, carriers, cols)

		// Scrambled arrival order, nothing like sorted-router order.
		arrival := make([]int, 0, routers)
		for r := routers - 1; r >= 0; r -= 2 {
			arrival = append(arrival, r)
		}
		for r := 0; r < routers; r += 2 {
			arrival = append(arrival, r)
		}
		acc := NewAccumulator()
		for _, r := range arrival {
			acc.Add(r, digests[r])
		}

		ref, rank := accReference(digests, arrival)
		cfg := RefinedConfig(256)
		cfg.Workers = 3
		want, err := Detect(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, weights := acc.Matrix()
		got, err := DetectWithWeights(m, weights, cfg)
		if err != nil {
			t.Fatal(err)
		}
		RemapRows(&got, rank)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d routers, planted=%v: incremental detection diverged\n got %+v\nwant %+v", routers, planted, got, want)
		}
		if planted != want.Found {
			t.Fatalf("%d routers, planted=%v but batch Found=%v (test scenario broken)", routers, planted, want.Found)
		}
	}
}

func TestAccumulatorRetraction(t *testing.T) {
	const routers, bits = 20, 512
	digests := accDigests(5, routers, bits, nil, nil)
	replacements := accDigests(6, routers, bits, nil, nil)

	arrival := make([]int, routers)
	for r := range arrival {
		arrival[r] = r
	}
	acc := NewAccumulator()
	for _, r := range arrival {
		acc.Add(r, digests[r])
	}
	// Replace a few routers (DupKeepLast): retract the old digest, apply the
	// new one. The matrix must equal the batch matrix over the final digests.
	final := make(map[int]*bitvec.Vector, routers)
	for r, d := range digests {
		final[r] = d
	}
	for _, r := range []int{0, 7, 19} {
		acc.Remove(r, digests[r])
		acc.Add(r, replacements[r])
		final[r] = replacements[r]
	}

	m, weights := acc.Matrix()
	ref, rank := accReference(final, arrival)
	for slot := range arrival {
		for j := 0; j < bits; j++ {
			if m.Test(slot, j) != ref.Test(rank[slot], j) {
				t.Fatalf("slot %d col %d: incremental bit %v, batch %v", slot, j, m.Test(slot, j), ref.Test(rank[slot], j))
			}
		}
	}
	if !reflect.DeepEqual(weights, ref.ColumnWeights()) {
		t.Fatal("maintained weights diverged from recomputed column weights after retraction")
	}
}

func TestAccumulatorBytesLedger(t *testing.T) {
	const routers, bits = 150, 256 // crosses the 64- and 128-slot growth points
	digests := accDigests(9, routers, bits, nil, nil)
	acc := NewAccumulator()
	var sum int64
	for r := 0; r < routers; r++ {
		est := acc.EstimateAdd(r, digests[r])
		delta := acc.Add(r, digests[r])
		if est != delta {
			t.Fatalf("router %d: EstimateAdd %d but Add moved %d bytes", r, est, delta)
		}
		sum += delta
	}
	if acc.Bytes() != sum {
		t.Fatalf("Bytes %d != sum of deltas %d", acc.Bytes(), sum)
	}
	if acc.Bytes() <= 0 {
		t.Fatal("accumulator claims zero footprint")
	}
	// Re-adding an existing router with the same width must not grow the
	// structural footprint.
	if est := acc.EstimateAdd(3, digests[3]); est != 0 {
		t.Fatalf("replacement add estimated %d bytes of growth", est)
	}
}

func TestAccumulatorSpanBlit(t *testing.T) {
	const bits = 384
	d1 := accDigests(11, 5, bits, nil, nil)
	d2 := accDigests(12, 3, bits, nil, nil)
	a1, a2 := NewAccumulator(), NewAccumulator()
	var rows []*bitvec.Vector
	for r := 0; r < 5; r++ {
		a1.Add(r, d1[r])
		rows = append(rows, d1[r])
	}
	for r := 0; r < 3; r++ {
		a2.Add(r, d2[r])
		rows = append(rows, d2[r])
	}

	span := bitvec.NewArena(bits, a1.Rows()+a2.Rows())
	a1.BlitInto(span, 0)
	a2.BlitInto(span, a1.Rows())
	weights := make([]int, bits)
	a1.AddWeightsInto(weights)
	a2.AddWeightsInto(weights)

	ref := FromDigests(rows)
	for j := 0; j < bits; j++ {
		if !bitvec.Equal(span[j], ref.Col(j)) {
			t.Fatalf("span column %d diverged from batch transposition", j)
		}
	}
	if !reflect.DeepEqual(weights, ref.ColumnWeights()) {
		t.Fatal("summed span weights diverged")
	}
}

// TestStitchSpanMatchesTransposition: epoch blocks whose boundaries fall
// mid-word (50, 30, 70 and 130 rows) stitch into exactly the matrix the batch
// transposition of the same rows builds. The last two accumulators grew past
// 64 slots, and the 130-row one has a column stride (four words) wider than
// its rows fill (three), so the stitch must read each column at its stride.
func TestStitchSpanMatchesTransposition(t *testing.T) {
	const bits = 131
	var accs []*Accumulator
	var rows []*bitvec.Vector
	for i, n := range []int{50, 30, 70, 130} {
		d := accDigests(uint64(40+i), n, bits, nil, nil)
		acc := NewAccumulator()
		for r := 0; r < n; r++ {
			acc.Add(r, d[r])
			rows = append(rows, d[r])
		}
		accs = append(accs, acc)
	}
	if s := accs[3].capRows / 64; s != 4 {
		t.Fatalf("130-row accumulator has stride %d words, want 4", s)
	}
	m, weights := StitchSpan(accs)
	ref := FromDigests(rows)
	if m.Rows() != ref.Rows() || m.Cols() != ref.Cols() {
		t.Fatalf("span %dx%d, want %dx%d", m.Rows(), m.Cols(), ref.Rows(), ref.Cols())
	}
	for j := 0; j < bits; j++ {
		if !bitvec.Equal(m.Col(j), ref.Col(j)) {
			t.Fatalf("span column %d diverged from batch transposition", j)
		}
	}
	if !reflect.DeepEqual(weights, ref.ColumnWeights()) {
		t.Fatal("stitched weights diverged")
	}
}
