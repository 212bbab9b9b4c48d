package aligned

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"dcstream/internal/stats"
)

// updateGolden rewrites testdata/detect_golden.json from whatever detector
// the package holds. The table is only ever regenerated from a checkout of
// the commit that is being pinned (see .claude/skills/verify/SKILL.md); a
// change to the level scan that moves it is a bug.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/detect_golden.json from this tree's detector")

const detectGoldenFile = "testdata/detect_golden.json"

// goldenCase is one pinned matrix: the row counts straddle the one-, two-
// and four-word column sizes, dense cases are the paper's half-full null
// model, and tie-heavy ones are so sparse that whole levels share one weight
// and the (hopeful, column) tie-break alone decides what survives.
type goldenCase struct {
	name                 string
	rows, cols           int
	fill                 float64 // 0.5 means RandomMatrix's coin flips
	plantRows, plantCols int
	subset               int
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, rows := range []int{8, 32, 63, 64, 65, 200, 256} {
		a := rows * 3 / 8
		if a < 4 {
			a = 4
		}
		for _, planted := range []bool{true, false} {
			pr, pc, tag := 0, 0, "empty"
			if planted {
				pr, pc, tag = a, 12, "planted"
			}
			cs = append(cs,
				goldenCase{fmt.Sprintf("dense-%d-%s", rows, tag), rows, 512, 0.5, pr, pc, 128},
				goldenCase{fmt.Sprintf("ties-%d-%s", rows, tag), rows, 1024, 0.04, pr, pc, 256})
		}
	}
	return cs
}

// sparseMatrix fills a rows×cols matrix with independent bits of the given
// density, through the public Set only.
func sparseMatrix(rng *rand.Rand, rows, cols int, fill float64) *Matrix {
	m := NewMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			if rng.Float64() < fill {
				m.Set(i, j)
			}
		}
	}
	return m
}

func (c goldenCase) matrix(seed uint64) *Matrix {
	rng := stats.NewRand(seed)
	var m *Matrix
	if c.fill == 0.5 {
		m = RandomMatrix(rng, c.rows, c.cols)
	} else {
		m = sparseMatrix(rng, c.rows, c.cols, c.fill)
	}
	if c.plantRows > 0 {
		m.PlantPattern(rng, c.plantRows, c.plantCols)
	}
	return m
}

// TestDetectGolden holds every field of the Detection — Found, Rows,
// CoreCols, Cols, Iterations and the whole WeightTrace — to the table the
// parent commit's detector produced, at three worker counts.
func TestDetectGolden(t *testing.T) {
	got := map[string]Detection{}
	for i, c := range goldenCases() {
		m := c.matrix(uint64(1000 + i))
		for _, workers := range []int{-1, 1, 3} {
			cfg := RefinedConfig(c.subset)
			cfg.Workers = workers
			det, err := Detect(m, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if prev, ok := got[c.name]; ok && !reflect.DeepEqual(prev, det) {
				t.Fatalf("%s: workers=%d diverged from workers=-1\n got %+v\nwant %+v", c.name, workers, det, prev)
			}
			got[c.name] = det
		}
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(detectGoldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(detectGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Detection{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden table has %d cases, the test builds %d", len(want), len(got))
	}
	found := 0
	for name, w := range want {
		// JSON has no nil/empty distinction; neither matters to a reader.
		if !detectionsEqual(got[name], w) {
			t.Errorf("%s: detection moved\n got %+v\nwant %+v", name, got[name], w)
		}
		if w.Found {
			found++
		}
	}
	if found == 0 || found == len(want) {
		t.Fatalf("golden table is vacuous: %d of %d cases found", found, len(want))
	}
}

func detectionsEqual(a, b Detection) bool {
	ints := func(x, y []int) bool { return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y)) }
	return a.Found == b.Found && a.Iterations == b.Iterations &&
		ints(a.Rows, b.Rows) && ints(a.CoreCols, b.CoreCols) && ints(a.Cols, b.Cols) &&
		ints(a.WeightTrace, b.WeightTrace)
}

// TestDetectMatchesOracle sweeps seeded shapes — row counts on both sides of
// every word boundary, dense and tie-heavy fills, planted and empty, every
// tuning knob the scan reads — and holds the live detector to the pre-flat
// one in oracle_test.go, field for field.
func TestDetectMatchesOracle(t *testing.T) {
	rng := stats.NewRand(2501)
	fills := []float64{0.02, 0.05, 0.3, 0.5}
	found, ties := 0, 0
	const shapes = 240
	for s := 0; s < shapes; s++ {
		rows := 2 + rng.Intn(140)
		if s%8 == 0 {
			rows = []int{63, 64, 65, 127, 128, 129, 256, 300}[rng.Intn(8)]
		}
		cols := 16 + rng.Intn(500)
		fill := fills[rng.Intn(len(fills))]
		var m *Matrix
		if fill == 0.5 {
			m = RandomMatrix(rng, rows, cols)
		} else {
			m = sparseMatrix(rng, rows, cols, fill)
		}
		if rng.Intn(2) == 0 {
			m.PlantPattern(rng, 1+rng.Intn(rows), 2+rng.Intn(14))
		}
		cfg := RefinedConfig(2 + rng.Intn(cols+40))
		cfg.Workers = []int{-1, 1, 2, 3, 7}[rng.Intn(5)]
		cfg.Gamma = rng.Intn(4)
		cfg.FullTrace = rng.Intn(3) == 0
		if rng.Intn(3) == 0 {
			cfg.Hopefuls = 1 + rng.Intn(cfg.SubsetSize)
		}
		if rng.Intn(3) == 0 {
			cfg.MaxIterations = 2 + rng.Intn(30)
		}
		weights := m.ColumnWeights()
		want, werr := oracleDetectWithWeights(m, weights, cfg)
		got, gerr := DetectWithWeights(m, weights, cfg)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("shape %d: oracle error %v, detector error %v", s, werr, gerr)
		}
		if !detectionsEqual(got, want) {
			t.Fatalf("shape %d (%dx%d fill %.2f cfg %+v): detection diverged from the oracle\n got %+v\nwant %+v",
				s, rows, cols, fill, cfg, got, want)
		}
		if want.Found {
			found++
		}
		if fill <= 0.05 {
			ties++
		}
	}
	if found < shapes/10 || found > shapes*9/10 || ties < shapes/10 {
		t.Fatalf("sweep is vacuous: %d of %d shapes found, %d tie-heavy", found, shapes, ties)
	}
}
