package unaligned

import (
	"math"
	"runtime"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/graph"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
)

func TestLambdaTableBasics(t *testing.T) {
	lt, err := NewLambdaTable(1024, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if lt.N() != 1024 || lt.PStar() != 1e-7 {
		t.Fatal("accessors wrong")
	}
	l1 := lt.Threshold(512, 512)
	if l1 != stats.HyperThreshold(1024, 512, 512, 1e-7) {
		t.Fatal("threshold differs from direct computation")
	}
	// Symmetry and memoization.
	if lt.Threshold(300, 500) != lt.Threshold(500, 300) {
		t.Fatal("λ not symmetric")
	}
	// Heavier rows must need a larger threshold.
	if lt.Threshold(600, 600) <= lt.Threshold(400, 400) {
		t.Fatal("λ not monotone in row weights")
	}
	// Tail property: exceeding λ has probability ≤ p*, and λ is minimal.
	for _, w := range []struct{ i, j int }{{512, 512}, {300, 700}, {100, 100}} {
		l := lt.Threshold(w.i, w.j)
		if s := stats.HyperSurvival(l, 1024, w.i, w.j); s > 1e-7 {
			t.Fatalf("λ(%d,%d)=%d has tail %v", w.i, w.j, l, s)
		}
	}
}

func TestLambdaTableValidation(t *testing.T) {
	if _, err := NewLambdaTable(0, 0.5); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewLambdaTable(10, 0); err == nil {
		t.Fatal("pstar=0 accepted")
	}
	if _, err := NewLambdaTable(10, 1); err == nil {
		t.Fatal("pstar=1 accepted")
	}
}

func TestPStarConversions(t *testing.T) {
	for _, p1 := range []float64{1e-8, 1e-5, 0.01, 0.3} {
		ps := PStarForEdgeProbability(p1, 100)
		back := EdgeProbabilityForPStar(ps, 100)
		if math.Abs(back-p1)/p1 > 1e-6 {
			t.Fatalf("round trip %v -> %v -> %v", p1, ps, back)
		}
	}
	if PStarForEdgeProbability(0, 100) != 0 || PStarForEdgeProbability(0.5, 0) != 0 {
		t.Fatal("degenerate conversions should be 0")
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	d := &Digest{RouterID: 0, Rows: [][]*bitvec.Vector{
		{bitvec.New(64), bitvec.New(64)},
		{bitvec.New(64), bitvec.New(128)}, // inconsistent width
	}}
	if _, err := Merge([]*Digest{d}); err == nil {
		t.Fatal("inconsistent widths accepted")
	}
	// Mixed array counts (different k) would skew the λ-table row-pair
	// count the ER test is calibrated for; Merge must reject them whether
	// the raggedness is within one router or across routers.
	ragged := &Digest{RouterID: 1, Rows: [][]*bitvec.Vector{
		{bitvec.New(64), bitvec.New(64)},
		{bitvec.New(64)}, // group 1 has k=1, group 0 has k=2
	}}
	if _, err := Merge([]*Digest{ragged}); err == nil {
		t.Fatal("mixed array counts within one digest accepted")
	}
	uniform2 := &Digest{RouterID: 2, Rows: [][]*bitvec.Vector{{bitvec.New(64), bitvec.New(64)}}}
	uniform3 := &Digest{RouterID: 3, Rows: [][]*bitvec.Vector{{bitvec.New(64), bitvec.New(64), bitvec.New(64)}}}
	if _, err := Merge([]*Digest{uniform2, uniform3}); err == nil {
		t.Fatal("mixed-k digests across routers accepted")
	}
	gm, err := Merge([]*Digest{uniform2, uniform2})
	if err != nil {
		t.Fatal(err)
	}
	if gm.ArraysPerGroup() != 2 {
		t.Fatalf("ArraysPerGroup=%d, want 2", gm.ArraysPerGroup())
	}
}

func TestMergeVertices(t *testing.T) {
	mk := func(router int, groups int) *Digest {
		d := &Digest{RouterID: router, Rows: make([][]*bitvec.Vector, groups)}
		for g := range d.Rows {
			d.Rows[g] = []*bitvec.Vector{bitvec.New(64)}
		}
		return d
	}
	gm, err := Merge([]*Digest{mk(10, 2), mk(20, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if gm.NumVertices() != 5 || gm.ArrayBits() != 64 {
		t.Fatalf("vertices=%d bits=%d", gm.NumVertices(), gm.ArrayBits())
	}
	if v := gm.Vertex(0); v.RouterID != 10 || v.Group != 0 {
		t.Fatalf("vertex 0 = %+v", v)
	}
	if v := gm.Vertex(4); v.RouterID != 20 || v.Group != 2 {
		t.Fatalf("vertex 4 = %+v", v)
	}
}

func TestBuildGraphNullEdgeRate(t *testing.T) {
	// Random half-full rows with a λ table targeting p1: the realized edge
	// count should be near p1·C(n,2).
	rng := stats.NewRand(11)
	const vertices = 60
	const bits = 512
	var digests []*Digest
	for r := 0; r < vertices; r++ {
		row := bitvec.New(bits)
		row.FillRandomHalf(rng.Uint64)
		row2 := bitvec.New(bits)
		row2.FillRandomHalf(rng.Uint64)
		digests = append(digests, &Digest{
			RouterID: r,
			Rows:     [][]*bitvec.Vector{{row, row2}},
		})
	}
	gm, err := Merge(digests)
	if err != nil {
		t.Fatal(err)
	}
	const p1 = 0.05
	lt, _ := NewLambdaTable(bits, PStarForEdgeProbability(p1, 4))
	g, err := gm.BuildGraph(lt)
	if err != nil {
		t.Fatal(err)
	}
	pairs := vertices * (vertices - 1) / 2
	mean := p1 * float64(pairs)
	if got := float64(g.NumEdges()); got < mean*0.3 || got > mean*2.5 {
		t.Fatalf("null edges %v, expected ≈%v", got, mean)
	}
}

func TestBuildGraphWidthMismatch(t *testing.T) {
	gm, _ := Merge([]*Digest{{RouterID: 0, Rows: [][]*bitvec.Vector{{bitvec.New(64)}}}})
	lt, _ := NewLambdaTable(128, 1e-3)
	if _, err := gm.BuildGraph(lt); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestERTest(t *testing.T) {
	rng := stats.NewRand(13)
	model := Model{N: 5000, ArrayBits: 1024}
	p1 := 0.5 / 5000
	null := model.SampleNull(rng, p1)
	res := ERTest(null, 60)
	if res.PatternDetected {
		t.Fatalf("false positive: largest component %d", res.LargestComponent)
	}
	planted, _ := model.SamplePlanted(rng, p1, 0.2, 100)
	res = ERTest(planted, 60)
	if !res.PatternDetected {
		t.Fatalf("false negative: largest component %d", res.LargestComponent)
	}
	if res.Threshold != 60 {
		t.Fatal("threshold not recorded")
	}
}

func TestFindPatternRecovers(t *testing.T) {
	rng := stats.NewRand(14)
	model := Model{N: 20000, ArrayBits: 1024}
	const n1 = 120
	g, pattern := model.SamplePlanted(rng, 0.65e-5*5, 0.17, n1)
	found, err := FindPattern(g, PatternConfig{Beta: 60, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	inPattern := map[int]bool{}
	for _, v := range pattern {
		inPattern[v] = true
	}
	tp := 0
	for _, v := range found {
		if inPattern[v] {
			tp++
		}
	}
	fp := len(found) - tp
	if tp < n1/2 {
		t.Fatalf("recovered %d/%d pattern vertices", tp, n1)
	}
	if float64(fp) > 0.15*float64(len(found)) {
		t.Fatalf("%d false positives among %d found", fp, len(found))
	}
}

func TestFindPatternValidation(t *testing.T) {
	model := Model{N: 100, ArrayBits: 64}
	g := model.SampleNull(stats.NewRand(1), 0.01)
	if _, err := FindPattern(g, PatternConfig{Beta: 0, D: 1}); err == nil {
		t.Fatal("Beta=0 accepted")
	}
	if _, err := FindPattern(g, PatternConfig{Beta: 5, D: 0}); err == nil {
		t.Fatal("D=0 accepted")
	}
}

func TestModelBasics(t *testing.T) {
	m := Model{N: 102400, ArrayBits: 1024}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// k=10 offsets over a 536 span: 1-exp(-100/536) ≈ 0.170.
	if pm := m.MatchProbability(); math.Abs(pm-0.1703) > 0.002 {
		t.Fatalf("match probability %v want ≈0.17", pm)
	}
	// Effective signal is slightly below g and increasing.
	if s := m.EffectiveSignal(100); s < 90 || s >= 100 {
		t.Fatalf("effective signal %v for g=100", s)
	}
	if m.EffectiveSignal(200) <= m.EffectiveSignal(100) {
		t.Fatal("effective signal not increasing")
	}
	bad := Model{N: 1, ArrayBits: 1024}
	if bad.Validate() == nil {
		t.Fatal("N=1 accepted")
	}
}

func TestEdgeProbabilitiesMonotoneInG(t *testing.T) {
	// With the fill that makes the paper's operating point exact (≈0.3),
	// longer content must raise p2 while p1 stays fixed.
	m := Model{N: 102400, ArrayBits: 1024, RowWeight: 307}
	pstar := PStarForEdgeProbability(0.65e-5, 100)
	prev := 0.0
	for _, g := range []int{40, 60, 80, 100, 120} {
		p1, p2 := m.EdgeProbabilities(pstar, g)
		if math.Abs(p1-0.65e-5)/0.65e-5 > 0.01 {
			t.Fatalf("p1 drifted to %v", p1)
		}
		if p2 < prev {
			t.Fatalf("p2 not monotone at g=%d: %v after %v", g, p2, prev)
		}
		prev = p2
	}
	// At the operating point, p2 approaches the match probability.
	_, p2 := m.EdgeProbabilities(pstar, 100)
	if p2 < 0.15 || p2 > 0.18 {
		t.Fatalf("p2=%v at g=100, want ≈0.17", p2)
	}
}

func TestMinClusterShape(t *testing.T) {
	model := Model{N: 102400, ArrayBits: 1024, RowWeight: 410}
	cfg := ClusterSearchConfig{Model: model, MaxM: 400}
	prev := 1 << 30
	for _, g := range []int{90, 110, 130, 150} {
		b, err := MinCluster(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if b.M <= 1 {
			t.Fatalf("g=%d: no bound found", g)
		}
		if b.M > prev {
			t.Fatalf("minimum cluster size not decreasing: g=%d m=%d after %d", g, b.M, prev)
		}
		prev = b.M
		if err := ValidateBound(cfg, b); err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
	}
}

func TestMinClusterRejectsBadModel(t *testing.T) {
	if _, err := MinCluster(ClusterSearchConfig{Model: Model{N: 0, ArrayBits: 0}}, 100); err == nil {
		t.Fatal("bad model accepted")
	}
}

// TestEndToEndUnalignedPipeline drives the full bitmap-level system at
// reduced scale: 20 routers × 4 groups, unaligned content planted at 12
// routers, arrays run to ≈30% fill; the induced graph must pass the ER test
// and FindPattern must recover the content-carrying vertices.
func TestEndToEndUnalignedPipeline(t *testing.T) {
	cfg := testCfg() // 4 groups × 10 arrays × 512 bits, segment 100
	const routers = 20
	const carriers = 12
	rng := stats.NewRand(15)
	content := trafficgen.NewContent(rng, 60, cfg.SegmentSize)
	prefix := make([]byte, cfg.SegmentSize)
	rng.Read(prefix)

	var digests []*Digest
	carrierVertex := map[Vertex]bool{}
	for r := 0; r < routers; r++ {
		rcfg := cfg
		rcfg.OffsetSeed = uint64(100 + r)
		c, err := NewCollector(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		// Background to ≈30% fill: each packet sets ≤1 bit per array; with
		// 4 groups and 512-bit arrays, ≈183 packets per group suffice.
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: 183 * cfg.Groups, SegmentSize: cfg.SegmentSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range bg {
			c.Update(p)
		}
		if r < carriers {
			flow := packet.FlowLabel(1 << 50)
			l := rng.Intn(cfg.SegmentSize)
			for _, p := range packet.Instance(flow, content.Data, prefix, l, cfg.SegmentSize) {
				c.Update(p)
			}
			carrierVertex[Vertex{RouterID: r, Group: c.GroupOf(flow)}] = true
		}
		digests = append(digests, c.Digest(r))
	}

	gm, err := Merge(digests)
	if err != nil {
		t.Fatal(err)
	}
	n := gm.NumVertices()
	if n != routers*cfg.Groups {
		t.Fatalf("%d vertices want %d", n, routers*cfg.Groups)
	}
	p1 := 0.5 / float64(n)
	lt, _ := NewLambdaTable(cfg.ArrayBits, PStarForEdgeProbability(p1, cfg.ArraysPerGroup*cfg.ArraysPerGroup))
	g, err := gm.BuildGraph(lt)
	if err != nil {
		t.Fatal(err)
	}
	res := ERTest(g, carriers/2)
	if !res.PatternDetected {
		t.Fatalf("ER test missed the pattern: largest component %d", res.LargestComponent)
	}

	found, err := FindPattern(g, PatternConfig{Beta: carriers / 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	tp, fp := 0, 0
	for _, v := range found {
		if carrierVertex[gm.Vertex(v)] {
			tp++
		} else {
			fp++
		}
	}
	if tp < carriers/2 {
		t.Fatalf("recovered %d/%d carrier vertices (found %d total)", tp, carriers, len(found))
	}
	if fp > tp {
		t.Fatalf("too many false positives: %d tp, %d fp", tp, fp)
	}
}

func TestBuildGraphParallelMatchesSerial(t *testing.T) {
	rng := stats.NewRand(16)
	var digests []*Digest
	for r := 0; r < 40; r++ {
		rows := make([]*bitvec.Vector, 3)
		for a := range rows {
			rows[a] = bitvec.New(256)
			rows[a].FillRandomHalf(rng.Uint64)
		}
		digests = append(digests, &Digest{RouterID: r, Rows: [][]*bitvec.Vector{rows}})
	}
	gm, err := Merge(digests)
	if err != nil {
		t.Fatal(err)
	}
	lt, _ := NewLambdaTable(256, 5e-3)
	serial, err := gm.BuildGraph(lt)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond small fixed counts, cover the clamp paths: 0 (GOMAXPROCS
	// default), negative (serial fallback), GOMAXPROCS itself, and a count
	// far above the vertex total.
	for _, workers := range []int{1, 2, 3, 8, 0, -4, runtime.GOMAXPROCS(0), 1 << 16} {
		par, err := gm.BuildGraphParallel(lt, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.NumEdges() != serial.NumEdges() {
			t.Fatalf("workers=%d: %d edges vs serial %d", workers, par.NumEdges(), serial.NumEdges())
		}
		for u := 0; u < serial.NumVertices(); u++ {
			for _, v := range serial.Neighbors(u) {
				if !par.HasEdge(u, int(v)) {
					t.Fatalf("workers=%d: missing edge (%d,%d)", workers, u, v)
				}
			}
		}
	}
	lt2, _ := NewLambdaTable(128, 5e-3)
	if _, err := gm.BuildGraphParallel(lt2, 4); err == nil {
		t.Fatal("width mismatch accepted in parallel path")
	}
}

// TestQuickFindPatternInvariants fuzzes graph shapes: the result must be
// sorted, duplicate-free, within range, and contain the full first core.
func TestQuickFindPatternInvariants(t *testing.T) {
	rng := stats.NewRand(17)
	for trial := 0; trial < 15; trial++ {
		n := 50 + rng.Intn(500)
		model := Model{N: n, ArrayBits: 256}
		p1 := (0.5 + rng.Float64()*3) / float64(n)
		g := model.SampleNull(rng, p1)
		if rng.Intn(2) == 0 {
			n1 := 10 + rng.Intn(n/4)
			graph.PlantDense(rng, g, stats.SampleDistinct(rng, n, n1), 0.25)
		}
		beta := 4 + rng.Intn(20)
		found, err := FindPattern(g, PatternConfig{Beta: beta, D: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		prev := -1
		for _, v := range found {
			if v < 0 || v >= n {
				t.Fatalf("vertex %d out of range [0,%d)", v, n)
			}
			if seen[v] {
				t.Fatalf("duplicate vertex %d in result", v)
			}
			if v <= prev {
				t.Fatalf("result not sorted: %v", found)
			}
			seen[v] = true
			prev = v
		}
		if len(found) < beta && g.NumVertices() >= beta {
			t.Fatalf("result %d smaller than core size %d", len(found), beta)
		}
		core := map[int]bool{}
		for _, v := range g.Core(beta) {
			core[v] = true
		}
		for v := range core {
			if !seen[v] {
				t.Fatalf("first core vertex %d missing from result", v)
			}
		}
	}
}
