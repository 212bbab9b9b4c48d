package aligned

import (
	"testing"

	"dcstream/internal/stats"
)

func containsAll(haystack, needles []int) int {
	set := map[int]bool{}
	for _, v := range haystack {
		set[v] = true
	}
	hit := 0
	for _, v := range needles {
		if set[v] {
			hit++
		}
	}
	return hit
}

func TestDetectorConfigValidation(t *testing.T) {
	m := NewMatrix(4, 8)
	for _, cfg := range []DetectorConfig{
		{SubsetSize: 0},
		{SubsetSize: 1},
		{SubsetSize: 4, Gamma: -1},
		{SubsetSize: 4, Epsilon: 2},
	} {
		if _, err := Detect(m, cfg); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
}

func TestDetectNoPattern(t *testing.T) {
	rng := stats.NewRand(50)
	misses := 0
	for trial := 0; trial < 5; trial++ {
		m := RandomMatrix(rng, 100, 1024)
		det, err := Detect(m, RefinedConfig(256))
		if err != nil {
			t.Fatal(err)
		}
		if det.Found {
			misses++
		}
		if len(det.WeightTrace) < 3 {
			t.Fatalf("trace too short: %v", det.WeightTrace)
		}
	}
	if misses > 0 {
		t.Fatalf("%d/5 false positives on pure noise", misses)
	}
}

func TestDetectPlantedPattern(t *testing.T) {
	rng := stats.NewRand(51)
	found := 0
	for trial := 0; trial < 5; trial++ {
		m := RandomMatrix(rng, 100, 1024)
		rows, cols := m.PlantPattern(rng, 20, 12)
		det, err := Detect(m, RefinedConfig(256))
		if err != nil {
			t.Fatal(err)
		}
		if !det.Found {
			continue
		}
		found++
		// Detected rows must cover the pattern rows with at most a couple of
		// noise rows absorbed (each noise row survives b′ products w.p. 2^-b′).
		if hit := containsAll(det.Rows, rows); hit < 18 {
			t.Fatalf("trial %d: only %d/20 pattern rows recovered", trial, hit)
		}
		if len(det.Rows) > 25 {
			t.Fatalf("trial %d: %d rows reported for a 20-row pattern", trial, len(det.Rows))
		}
		// Core expansion must pull in essentially all pattern columns.
		if hit := containsAll(det.Cols, cols); hit < 10 {
			t.Fatalf("trial %d: only %d/12 pattern columns recovered", trial, hit)
		}
		if len(det.Cols) > 20 {
			t.Fatalf("trial %d: %d columns reported for a 12-column pattern", trial, len(det.Cols))
		}
	}
	if found < 4 {
		t.Fatalf("pattern detected in only %d/5 trials", found)
	}
}

func TestDetectNaiveEqualsRefinedOnSmallMatrix(t *testing.T) {
	// With SubsetSize = n the refined algorithm degenerates to the naive
	// one; both must find the same planted pattern.
	rng := stats.NewRand(52)
	m := RandomMatrix(rng, 60, 300)
	rows, _ := m.PlantPattern(rng, 15, 10)
	naive, err := Detect(m, NaiveConfig(m.Cols()))
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Detect(m, RefinedConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Found || !refined.Found {
		t.Fatalf("naive found=%v refined found=%v", naive.Found, refined.Found)
	}
	if containsAll(naive.Rows, rows) < 14 || containsAll(refined.Rows, rows) < 14 {
		t.Fatal("row recovery differs from pattern")
	}
}

func TestWeightTraceShape(t *testing.T) {
	// Figure 7's shape: initial ≈halving, plateau near the pattern's row
	// count, then a second dive. Verified on a planted instance with
	// FullTrace so the post-detection dive is recorded.
	rng := stats.NewRand(53)
	m := RandomMatrix(rng, 128, 2048)
	_, _ = m.PlantPattern(rng, 30, 14)
	cfg := RefinedConfig(512)
	cfg.FullTrace = true
	cfg.MaxIterations = 20
	det, err := Detect(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Found {
		t.Fatal("planted pattern not found")
	}
	tr := det.WeightTrace
	if len(tr) < det.Iterations+1 {
		t.Fatalf("trace %v shorter than iterations %d", tr, det.Iterations)
	}
	// Plateau: at the detected iteration the weight is ≈30 (the pattern
	// rows), well above the pure-noise expectation 128·2^-b′.
	plateau := tr[det.Iterations-1]
	if plateau < 25 || plateau > 40 {
		t.Fatalf("plateau weight %d, want ≈30 (trace %v)", plateau, tr)
	}
	// Early decay: second product should be far below the first.
	if float64(tr[1]) > 0.75*float64(tr[0]) {
		t.Fatalf("no initial decay: %v", tr)
	}
	// Dive after the plateau.
	if det.Iterations < len(tr) {
		if float64(tr[det.Iterations]) > 0.8*float64(plateau) {
			t.Fatalf("no dive after plateau: %v (iterations=%d)", tr, det.Iterations)
		}
	}
}

func TestDetectOnVirtualSample(t *testing.T) {
	// Paper-scale shape at reduced size: sample the heaviest 512 columns of
	// a virtual 200×262144 matrix with a planted 40×25 pattern.
	rng := stats.NewRand(54)
	vs, err := SampleHeavyColumns(rng, VirtualConfig{
		Rows: 200, Cols: 1 << 18, SubsetSize: 512,
		PatternRows: 40, PatternCols: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs.Matrix.Cols() != 512 {
		t.Fatalf("sampled %d columns want 512", vs.Matrix.Cols())
	}
	det, err := Detect(vs.Matrix, RefinedConfig(512))
	if err != nil {
		t.Fatal(err)
	}
	if !det.Found {
		t.Fatalf("planted 40x25 not found; %d pattern cols survived screening",
			len(vs.PatternColsInS1))
	}
	if hit := containsAll(det.Rows, vs.PatternRowSet); hit < 36 {
		t.Fatalf("only %d/40 pattern rows recovered", hit)
	}
}

func TestVirtualSampleStatistics(t *testing.T) {
	rng := stats.NewRand(55)
	cfg := VirtualConfig{Rows: 100, Cols: 1 << 16, SubsetSize: 300}
	vs, err := SampleHeavyColumns(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All sampled columns must be above the theoretical cutoff region:
	// the 300th heaviest of 65536 Binomial(100, 1/2) draws sits near the
	// quantile with tail 300/65536 ≈ 0.0046, i.e. weight ≈ 63.
	w := vs.Matrix.ColumnWeights()
	minW := w[0]
	for _, v := range w {
		if v < minW {
			minW = v
		}
	}
	if minW < 58 || minW > 68 {
		t.Fatalf("lightest sampled column %d, want ≈63", minW)
	}
	if len(vs.PatternColsInS1) != 0 || vs.PatternRowSet != nil {
		t.Fatal("pure-noise sample reports a pattern")
	}
}

func TestVirtualConfigValidation(t *testing.T) {
	rng := stats.NewRand(56)
	for _, cfg := range []VirtualConfig{
		{Rows: 0, Cols: 10, SubsetSize: 5},
		{Rows: 10, Cols: 10, SubsetSize: 20},
		{Rows: 10, Cols: 100, SubsetSize: 5, PatternRows: 3}, // cols missing
		{Rows: 10, Cols: 100, SubsetSize: 5, PatternRows: 11, PatternCols: 2},
	} {
		if _, err := SampleHeavyColumns(rng, cfg); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
}

func TestSignificant(t *testing.T) {
	// A 1x1 all-ones "pattern" is everywhere; a 50x50 block in a small
	// matrix is essentially impossible by chance.
	if Significant(100, 100, 1, 1, 1e-3) {
		t.Fatal("1x1 flagged significant")
	}
	if !Significant(100, 100, 50, 50, 1e-3) {
		t.Fatal("50x50 in 100x100 not significant")
	}
	if Significant(100, 100, 0, 5, 1e-3) || Significant(100, 100, 5, 0, 1e-3) {
		t.Fatal("degenerate pattern flagged significant")
	}
}

// TestQuickDetectionInvariants fuzzes matrix shapes and patterns, checking
// the structural invariants every Detection must satisfy regardless of
// whether a pattern is found: the weight trace never increases (an AND can
// only lose ones, and each level's best is bounded by the previous best),
// all reported indices are in range, and the core is a subset of the
// expanded column set.
func TestQuickDetectionInvariants(t *testing.T) {
	rng := stats.NewRand(90)
	for trial := 0; trial < 12; trial++ {
		rows := 20 + rng.Intn(100)
		cols := 64 + rng.Intn(512)
		m := RandomMatrix(rng, rows, cols)
		if rng.Intn(2) == 0 {
			a := 2 + rng.Intn(rows/2)
			b := 2 + rng.Intn(16)
			m.PlantPattern(rng, a, b)
		}
		subset := 32 + rng.Intn(cols)
		det, err := Detect(m, RefinedConfig(subset))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(det.WeightTrace); i++ {
			if det.WeightTrace[i] > det.WeightTrace[i-1] {
				t.Fatalf("trace increased at %d: %v", i, det.WeightTrace)
			}
		}
		if !det.Found {
			if len(det.Rows) != 0 || len(det.Cols) != 0 {
				t.Fatal("not-found detection carries rows/cols")
			}
			continue
		}
		coreSet := map[int]bool{}
		for _, j := range det.CoreCols {
			if j < 0 || j >= cols {
				t.Fatalf("core column %d out of range", j)
			}
			coreSet[j] = true
		}
		colSet := map[int]bool{}
		for _, j := range det.Cols {
			if j < 0 || j >= cols {
				t.Fatalf("column %d out of range", j)
			}
			colSet[j] = true
		}
		for j := range coreSet {
			if !colSet[j] {
				t.Fatalf("core column %d missing from expanded set", j)
			}
		}
		for _, r := range det.Rows {
			if r < 0 || r >= rows {
				t.Fatalf("row %d out of range", r)
			}
		}
		if det.Iterations < 1 || det.Iterations > len(det.WeightTrace) {
			t.Fatalf("iterations %d vs trace length %d", det.Iterations, len(det.WeightTrace))
		}
		// Every reported row must actually be 1 in every core column — the
		// detection is an all-1 submatrix by construction.
		for _, j := range det.CoreCols {
			for _, r := range det.Rows {
				if !m.Test(r, j) {
					t.Fatalf("reported submatrix has a zero at (%d,%d)", r, j)
				}
			}
		}
	}
}

// TestDetectAllocatesPerLevel: the scan's working set is flat arrays reused
// level after level, so a detection allocates a few objects a level — the
// level's hopeful list, growth of the scanner's lists — and nothing per
// candidate, of which every level keeps Hopefuls and scores many more.
func TestDetectAllocatesPerLevel(t *testing.T) {
	rng := stats.NewRand(57)
	m := RandomMatrix(rng, 48, 2048)
	m.PlantPattern(rng, 18, 12)
	weights := m.ColumnWeights()
	cfg := RefinedConfig(256)
	cfg.Workers = -1
	var det Detection
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if det, err = DetectWithWeights(m, weights, cfg); err != nil {
			t.Fatal(err)
		}
	})
	levels := len(det.WeightTrace)
	if !det.Found || levels < 10 {
		t.Fatalf("scenario broken: found=%v after %d levels", det.Found, levels)
	}
	if limit := float64(6*levels + 40); allocs > limit || allocs > float64(cfg.SubsetSize) {
		t.Fatalf("%v allocations for %d levels of %d hopefuls, want at most %v", allocs, levels, cfg.SubsetSize, limit)
	}
}
