package experiments

import (
	"fmt"

	"dcstream/internal/aligned"
)

// Fig12Params sizes the threshold-curve computation (Figure 12): for each
// number of routers a, the minimum content length b that is (i) not
// naturally occurring and (ii) detectable by the refined algorithm with 95%
// probability. Purely analytic — no Monte-Carlo.
type Fig12Params struct {
	Rows, Cols int
	SubsetSize int
	Eps        float64
	AValues    []int
}

// Fig12ParamsFor returns the computation sizing for a scale (the analytic
// computation is cheap, so test/default/paper differ only in grid density).
func Fig12ParamsFor(s Scale) Fig12Params {
	p := Fig12Params{Rows: 1000, Cols: 4 << 20, SubsetSize: 4000, Eps: 0.05}
	switch s {
	case ScaleTest:
		p.AValues = []int{25, 70, 100}
	case ScalePaper:
		for a := 20; a <= 200; a += 2 {
			p.AValues = append(p.AValues, a)
		}
	default:
		for a := 20; a <= 200; a += 10 {
			p.AValues = append(p.AValues, a)
		}
	}
	return p
}

// Fig12Point is one curve sample.
type Fig12Point struct {
	A int
	// NonNaturalB is the lower curve: minimum b for an a×b pattern to be
	// non-naturally occurring in the full matrix. -1 when unreachable.
	NonNaturalB int
	// DetectableB is the upper curve: minimum b detectable with ≥95%
	// probability by the refined (screened) detector. -1 when unreachable.
	DetectableB int
}

// Fig12Result holds both curves.
type Fig12Result struct {
	Params Fig12Params
	Points []Fig12Point
}

func fig12(_ uint64, s Scale, _ int) (Result, error) {
	return RunFig12(Fig12ParamsFor(s))
}

// RunFig12 executes the computation.
func RunFig12(p Fig12Params) (*Fig12Result, error) {
	det := aligned.DetectableConfig{
		Rows: p.Rows, Cols: p.Cols, SubsetSize: p.SubsetSize, Eps: p.Eps,
	}
	if err := det.Validate(); err != nil {
		return nil, err
	}
	res := &Fig12Result{Params: p}
	for _, a := range p.AValues {
		res.Points = append(res.Points, Fig12Point{
			A:           a,
			NonNaturalB: aligned.NonNaturalMinB(p.Rows, p.Cols, a, p.Eps),
			DetectableB: aligned.DetectableMinB(det, a),
		})
	}
	return res, nil
}

// Table renders both curves.
func (r *Fig12Result) Table() string {
	rows := make([][]string, len(r.Points))
	for i, pt := range r.Points {
		rows[i] = []string{d(pt.A), d(pt.NonNaturalB), d(pt.DetectableB)}
	}
	title := fmt.Sprintf(
		"Figure 12 — non-naturally-occurring vs detectable thresholds (matrix %dx%d, n'=%d, ε=%g; paper: a=28→21, a=70→10 lower; a=25→3029, a=70→99 upper)",
		r.Params.Rows, r.Params.Cols, r.Params.SubsetSize, r.Params.Eps)
	return table(title, []string{"a (routers)", "min b non-natural", "min b detectable"}, rows)
}
