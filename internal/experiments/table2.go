package experiments

import (
	"fmt"

	"dcstream/internal/unaligned"
)

// Table2Params sizes the non-naturally-occurring cluster computation
// (Table II): for each content length g, the minimum pattern size m such
// that co-tuned (p1, d) control both error kinds. Purely analytic.
//
// Two array fills are computed: the paper's literal 50% and the 40% point.
// Under the exact conditional overlap model the 40% column brackets the
// paper's published values closely; the 50% column is ~3x larger
// (EXPERIMENTS.md discusses why the paper's own constants imply a looser
// overlap approximation).
type Table2Params struct {
	N         int
	ArrayBits int
	Fills     []float64
	GValues   []int
	MaxM      int
}

// Table2ParamsFor returns the computation sizing for a scale.
func Table2ParamsFor(s Scale) Table2Params {
	p := Table2Params{N: 102400, ArrayBits: 1024, Fills: []float64{0.5, 0.4}, MaxM: 1200}
	switch s {
	case ScaleTest:
		p.GValues = []int{110, 150}
		p.Fills = []float64{0.4}
		p.MaxM = 400
	case ScalePaper:
		p.GValues = []int{80, 90, 100, 110, 120, 130, 140, 150}
	default:
		p.GValues = []int{80, 100, 120, 150}
	}
	return p
}

// Table2Row is one g's bounds across the configured fills.
type Table2Row struct {
	G      int
	Bounds []unaligned.ClusterBound // aligned with Params.Fills
}

// Table2Result aggregates the computation.
type Table2Result struct {
	Params Table2Params
	Rows   []Table2Row
}

func table2(_ uint64, s Scale, _ int) (Result, error) {
	return RunTable2(Table2ParamsFor(s))
}

// RunTable2 executes the computation.
func RunTable2(p Table2Params) (*Table2Result, error) {
	res := &Table2Result{Params: p}
	for _, g := range p.GValues {
		row := Table2Row{G: g}
		for _, fill := range p.Fills {
			model := unaligned.Model{
				N: p.N, ArrayBits: p.ArrayBits,
				RowWeight: int(fill * float64(p.ArrayBits)),
			}
			b, err := unaligned.MinCluster(unaligned.ClusterSearchConfig{
				Model: model, MaxM: p.MaxM,
			}, g)
			if err != nil {
				return nil, err
			}
			row.Bounds = append(row.Bounds, b)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// paperTable2 holds the published Table II values for side-by-side display.
var paperTable2 = map[int]int{
	80: 297, 90: 150, 100: 95, 110: 62, 120: 46, 130: 36, 140: 28, 150: 23,
}

// Table renders the computed bounds next to the paper's.
func (r *Table2Result) Table() string {
	header := []string{"g (packets)"}
	for _, f := range r.Params.Fills {
		header = append(header, fmt.Sprintf("min m @fill %.2f", f), "d")
	}
	header = append(header, "paper min m")
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := []string{d(row.G)}
		for _, b := range row.Bounds {
			cells = append(cells, d(b.M), d(b.D))
		}
		paper := "-"
		if v, ok := paperTable2[row.G]; ok {
			paper = d(v)
		}
		rows[i] = append(cells, paper)
	}
	title := fmt.Sprintf(
		"Table II — minimum non-naturally-occurring cluster size (n=%d, arrays %d bits, type-I ≤ 1e-10, power ≥ 0.95)",
		r.Params.N, r.Params.ArrayBits)
	return table(title, header, rows)
}
