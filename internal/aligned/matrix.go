package aligned

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dcstream/internal/bitvec"
	"dcstream/internal/stats"
)

// Matrix is the m×n 0-1 matrix the analysis center assembles by stacking m
// router digests of n bits each (§III-B). It is stored column-major in one
// flat word array, because the detection algorithms work entirely on column
// AND-products: column j is the ⌈rows/64⌉ words at words[j*stride:], and
// every bit at row position ≥ rows is zero. stride exceeds the column's own
// word count only when the matrix is a view of an accumulator's arena.
type Matrix struct {
	rows, cols, stride int
	words              []uint64
}

// NewMatrix returns an all-zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols < 0 {
		panic(fmt.Sprintf("aligned: invalid matrix shape %dx%d", rows, cols))
	}
	wpc := (rows + 63) / 64
	return &Matrix{rows: rows, cols: cols, stride: wpc, words: make([]uint64, cols*wpc)}
}

// Rows returns the number of rows (routers).
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (bitmap width).
func (m *Matrix) Cols() int { return m.cols }

// col returns column j's words (shared storage).
func (m *Matrix) col(j int) []uint64 {
	return m.words[j*m.stride : j*m.stride+(m.rows+63)/64]
}

// Col returns a copy of column j as an m-bit vector.
func (m *Matrix) Col(j int) *bitvec.Vector {
	v := bitvec.New(m.rows)
	copy(v.Words(), m.col(j))
	return v
}

func (m *Matrix) check(i, j int) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(fmt.Sprintf("aligned: entry (%d,%d) outside %dx%d", i, j, m.rows, m.cols))
	}
}

// Set sets entry (row i, column j) to 1.
func (m *Matrix) Set(i, j int) {
	m.check(i, j)
	m.words[j*m.stride+i/64] |= 1 << uint(i%64)
}

// Test reports entry (i, j).
func (m *Matrix) Test(i, j int) bool {
	m.check(i, j)
	return m.words[j*m.stride+i/64]&(1<<uint(i%64)) != 0
}

// FromDigests transposes m router digests (each an n-bit row) into the
// column-major matrix used for detection. All digests must share one width.
func FromDigests(digests []*bitvec.Vector) *Matrix {
	if len(digests) == 0 {
		panic("aligned: FromDigests needs at least one digest")
	}
	n := digests[0].Len()
	for i, d := range digests {
		if d.Len() != n {
			panic(fmt.Sprintf("aligned: digest %d width %d, want %d", i, d.Len(), n))
		}
	}
	m := NewMatrix(len(digests), n)
	for i, d := range digests {
		for _, j := range d.Indices() {
			m.Set(i, j)
		}
	}
	return m
}

// ColumnMatrix copies pre-built column vectors, each rows bits long, into a
// matrix. bench/layers.go only, until ROADMAP item 1: the center stitches a
// span with StitchSpan and no longer holds a vector per column.
func ColumnMatrix(rows int, cols []*bitvec.Vector) *Matrix {
	m := NewMatrix(rows, len(cols))
	for j, c := range cols {
		if c.Len() != rows {
			panic(fmt.Sprintf("aligned: column %d length %d, want %d", j, c.Len(), rows))
		}
		copy(m.col(j), c.Words())
	}
	return m
}

// RandomMatrix fills an m×n matrix with independent fair coin flips — the
// Monte-Carlo null model of §V-A (half 1's, half 0's).
func RandomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.words {
		m.words[i] = rng.Uint64()
	}
	if rem := uint(rows % 64); rem != 0 {
		for j := 0; j < cols; j++ {
			m.words[(j+1)*m.stride-1] &= 1<<rem - 1
		}
	}
	return m
}

// PlantPattern sets an a×b all-1 submatrix at a uniformly random choice of
// a rows and b columns (the paper's pattern injection) and returns the
// chosen rows and columns, each sorted ascending by construction order of
// SampleDistinct (no particular order guaranteed).
func (m *Matrix) PlantPattern(rng *rand.Rand, a, b int) (rows, cols []int) {
	if a <= 0 || a > m.rows || b <= 0 || b > m.cols {
		panic(fmt.Sprintf("aligned: pattern %dx%d does not fit %dx%d", a, b, m.rows, m.cols))
	}
	rows = stats.SampleDistinct(rng, m.rows, a)
	cols = stats.SampleDistinct(rng, m.cols, b)
	for _, j := range cols {
		for _, i := range rows {
			m.Set(i, j)
		}
	}
	return rows, cols
}

// ColumnWeights returns the weight (number of 1's) of every column.
func (m *Matrix) ColumnWeights() []int {
	w := make([]int, m.cols)
	for j := range w {
		for _, x := range m.col(j) {
			w[j] += bits.OnesCount64(x)
		}
	}
	return w
}
