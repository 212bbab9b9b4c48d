package unaligned

import (
	"math/rand"
	"reflect"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/graph"
	"dcstream/internal/stats"
)

const (
	trTestBits   = 512
	trTestArrays = 2
)

// trDigest builds a digest with the given group count, rows ~half full.
func trDigest(rng *rand.Rand, router, groups int) *Digest {
	d := &Digest{RouterID: router, Rows: make([][]*bitvec.Vector, groups)}
	for g := range d.Rows {
		d.Rows[g] = make([]*bitvec.Vector, trTestArrays)
		for a := range d.Rows[g] {
			v := bitvec.New(trTestBits)
			v.FillRandomHalf(rng.Uint64)
			d.Rows[g][a] = v
		}
	}
	return d
}

// trPlantShared overwrites one row in each of two digests with the same
// bitmap, so that vertex pair is correlated far past any λ.
func trPlantShared(rng *rand.Rand, a, b *Digest, ga, gb int) {
	v := bitvec.New(trTestBits)
	v.FillRandomHalf(rng.Uint64)
	a.Rows[ga][0] = v
	b.Rows[gb][1] = v.Clone()
}

// trBatchGraph is the batch reference: Merge in member order, then BuildGraph
// under the given table.
func trBatchGraph(t *testing.T, digests []*Digest, table *LambdaTable) *graph.Graph {
	t.Helper()
	gm, err := Merge(digests)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gm.BuildGraph(table)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// trIncGraph builds the graph from tracker evidence.
func trIncGraph(tr *Tracker, order []MemberRef, table *LambdaTable) *graph.Graph {
	ev := tr.Snapshot(order)
	g := graph.New(ev.NumVertices())
	for _, e := range ev.Edges(table) {
		g.AddEdge(int(e[0]), int(e[1]))
	}
	return g
}

func trCompareGraphs(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: %d vertices, want %d", name, got.NumVertices(), want.NumVertices())
	}
	for u := 0; u < want.NumVertices(); u++ {
		for v := u + 1; v < want.NumVertices(); v++ {
			if got.HasEdge(u, v) != want.HasEdge(u, v) {
				t.Fatalf("%s: edge (%d,%d) incremental=%v batch=%v", name, u, v, got.HasEdge(u, v), want.HasEdge(u, v))
			}
		}
	}
}

// finalTables builds the ER and core λ tables the center would use for n
// vertices with dynamic defaults.
func finalTables(t *testing.T, n int) (*LambdaTable, *LambdaTable) {
	t.Helper()
	rowPairs := trTestArrays * trTestArrays
	er, err := NewLambdaTable(trTestBits, PStarForEdgeProbability(0.5/float64(n), rowPairs))
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewLambdaTable(trTestBits, PStarForEdgeProbability(8/float64(n), rowPairs))
	if err != nil {
		t.Fatal(err)
	}
	return er, core
}

func TestTrackerMatchesBatchSingleEpoch(t *testing.T) {
	rng := stats.NewRand(31)
	const routers = 12
	digests := make([]*Digest, routers)
	order := make([]MemberRef, routers)
	for r := range digests {
		digests[r] = trDigest(rng, r, 1+r%3)
		order[r] = MemberRef{Epoch: 1, Router: r}
	}
	// Correlate a few vertex pairs, including an intra-router group pair.
	trPlantShared(rng, digests[0], digests[5], 0, 1)
	trPlantShared(rng, digests[2], digests[2], 0, 1)
	trPlantShared(rng, digests[7], digests[11], 0, 0)

	tr := NewTracker(TrackerConfig{Reach: 1})
	for _, d := range digests {
		tr.Add(1, d)
	}
	gm, err := Merge(digests)
	if err != nil {
		t.Fatal(err)
	}
	er, core := finalTables(t, gm.NumVertices())
	for _, tc := range []struct {
		name  string
		table *LambdaTable
	}{{"er", er}, {"core", core}} {
		want := trBatchGraph(t, digests, tc.table)
		got := trIncGraph(tr, order, tc.table)
		trCompareGraphs(t, tc.name, got, want)
		if want.NumEdges() == 0 {
			t.Fatalf("%s: reference graph has no edges, test is vacuous", tc.name)
		}
	}
}

func TestTrackerRetraction(t *testing.T) {
	rng := stats.NewRand(32)
	const routers = 8
	digests := make([]*Digest, routers)
	order := make([]MemberRef, routers)
	for r := range digests {
		digests[r] = trDigest(rng, r, 2)
		order[r] = MemberRef{Epoch: 4, Router: r}
	}
	trPlantShared(rng, digests[1], digests[6], 1, 0)
	// Router 3 will be replaced with a fresh digest (same group count) and
	// router 6 with one correlated to router 2 instead. Everything is planted
	// before the first Add: the tracker keeps its own copy of a digest's rows,
	// so what is done to a digest afterwards is not seen.
	repl3 := trDigest(rng, 3, 2)
	repl6 := trDigest(rng, 6, 2)
	trPlantShared(rng, digests[2], repl6, 0, 1)

	tr := NewTracker(TrackerConfig{Reach: 1})
	for _, d := range digests {
		tr.Add(4, d)
	}
	for _, rep := range []struct {
		r int
		d *Digest
	}{{3, repl3}, {6, repl6}} {
		tr.Remove(4, rep.r)
		tr.Add(4, rep.d)
		digests[rep.r] = rep.d
	}

	gm, err := Merge(digests)
	if err != nil {
		t.Fatal(err)
	}
	er, _ := finalTables(t, gm.NumVertices())
	trCompareGraphs(t, "after-retraction", trIncGraph(tr, order, er), trBatchGraph(t, digests, er))
}

// TestTrackerRetractionLeavesNoDanglingPairs drives seeded Add (with
// replacement), Remove and DropEpoch sequences over five epochs at reach 1–3.
// After every step no pair record may name an absent member, and Bytes() must
// equal a recount of the members and pairs held and the sum of the returned
// deltas: Remove looks pairs up only within reach, so a pair it missed would
// dangle here.
func TestTrackerRetractionLeavesNoDanglingPairs(t *testing.T) {
	for reach := 1; reach <= 3; reach++ {
		rng := stats.NewRand(uint64(90 + reach))
		tr := NewTracker(TrackerConfig{Reach: reach})
		var sum int64
		for step := 0; step < 300; step++ {
			e, r := 1+rng.Intn(5), rng.Intn(6)
			switch op := rng.Intn(10); {
			case op < 6:
				sum += tr.Remove(e, r)
				d := trDigest(rng, r, 1+rng.Intn(2))
				if rng.Intn(3) == 0 {
					ref := MemberRef{Epoch: 1 + rng.Intn(5), Router: rng.Intn(6)}
					if o, ok := tr.members[ref]; ok {
						// Share a stored row, so the pair keeps evidence
						// past any prune.
						v := bitvec.New(trTestBits)
						copy(v.Words(), o.words[:len(v.Words())])
						d.Rows[0][1] = v
					}
				}
				sum += tr.Add(e, d)
			case op < 9:
				sum += tr.Remove(e, r)
			default:
				sum += tr.DropEpoch(e)
			}
			recount := int64(0)
			for _, m := range tr.members {
				recount += m.bytes
			}
			for key, p := range tr.pairs {
				if tr.members[key.a] == nil || tr.members[key.b] == nil {
					t.Fatalf("reach %d step %d: pair %v names an absent member", reach, step, key)
				}
				recount += trPairBytes + int64(len(p.entries))*trEntryBytes
			}
			if tr.Bytes() != recount || tr.Bytes() != sum {
				t.Fatalf("reach %d step %d: Bytes()=%d, recount %d, summed deltas %d", reach, step, tr.Bytes(), recount, sum)
			}
		}
		if len(tr.pairs) == 0 {
			t.Fatalf("reach %d: no pair survived the sequence; the check saw nothing", reach)
		}
	}
}

// TestTrackerOwnsItsRows: mutating a digest after Add changes no stored
// evidence and no later correlation — the tracker correlates the rows it was
// given, whose weights it counted then.
func TestTrackerOwnsItsRows(t *testing.T) {
	build := func(mutate bool) *Tracker {
		rng := stats.NewRand(36)
		tr := NewTracker(TrackerConfig{Reach: 1})
		var digests []*Digest
		for r := 0; r < 10; r++ {
			digests = append(digests, trDigest(rng, r, 2))
		}
		trPlantShared(rng, digests[0], digests[9], 0, 1)
		for r, d := range digests {
			tr.Add(1, d)
			if mutate && r == 0 {
				d.Rows[0][0].Reset()                  // bits under a cached weight
				d.Rows[1][1] = bitvec.New(trTestBits) // a row swapped out
			}
		}
		return tr
	}
	want, got := build(false), build(true)
	if len(want.pairs) == 0 || len(got.pairs) != len(want.pairs) {
		t.Fatalf("%d pairs after mutating a stored digest, %d without", len(got.pairs), len(want.pairs))
	}
	for key, p := range want.pairs {
		if q, ok := got.pairs[key]; !ok || !reflect.DeepEqual(q.entries, p.entries) {
			t.Fatalf("pair %v: evidence moved after its digest was mutated\n got %v\nwant %v", key, q, p.entries)
		}
	}
}

func TestTrackerCrossEpoch(t *testing.T) {
	rng := stats.NewRand(33)
	tr := NewTracker(TrackerConfig{Reach: 2})
	var digests []*Digest
	var order []MemberRef
	for _, ep := range []int{1, 2} {
		for r := 0; r < 5; r++ {
			d := trDigest(rng, r, 2)
			tr.Add(ep, d)
			digests = append(digests, d)
			order = append(order, MemberRef{Epoch: ep, Router: r})
		}
	}
	// Correlate across the boundary: epoch 1 router 4 with epoch 2 router 0.
	trPlantShared(rng, digests[4], digests[5], 0, 1)
	// Planting mutated rows after Add, so rebuild those two members the way
	// the center would on replacement.
	for _, i := range []int{4, 5} {
		tr.Remove(order[i].Epoch, order[i].Router)
		tr.Add(order[i].Epoch, digests[i])
	}

	gm, err := Merge(digests)
	if err != nil {
		t.Fatal(err)
	}
	er, core := finalTables(t, gm.NumVertices())
	wantER := trBatchGraph(t, digests, er)
	trCompareGraphs(t, "cross-er", trIncGraph(tr, order, er), wantER)
	trCompareGraphs(t, "cross-core", trIncGraph(tr, order, core), trBatchGraph(t, digests, core))

	// The planted cross-epoch edge joins vertex 9 (epoch 1 router 4, group 0;
	// routers 0..4 with 2 groups each, so base of member 4 is 8) with vertex
	// 10 (epoch 2 router 0 group 1 is 10+1... assert via the reference).
	if wantER.NumEdges() == 0 {
		t.Fatal("no cross-epoch edge in reference graph")
	}

	// Retiring epoch 1 drops its members and every pair touching it, and the
	// byte ledger returns to exactly the epoch-2-only footprint.
	tr.DropEpoch(1)
	tr.DropEpoch(2)
	if tr.Bytes() != 0 {
		t.Fatalf("ledger leaks %d bytes after dropping all epochs", tr.Bytes())
	}
	if len(tr.pairs) != 0 || len(tr.members) != 0 {
		t.Fatalf("state leaks after dropping all epochs: %d members, %d pairs", len(tr.members), len(tr.pairs))
	}
}

// TestTrackerAddAllocatesPerEvidencePair: in steady state an Add allocates the
// member's two flat arrays and, for each pair that keeps evidence, its record
// and its entries — nothing per row pair compared.
func TestTrackerAddAllocatesPerEvidencePair(t *testing.T) {
	rng := stats.NewRand(37)
	tr := NewTracker(TrackerConfig{Reach: 1})
	var last *Digest
	for r := 0; r < 30; r++ {
		last = bankDigest(rng, r, 4, 10, 512, 0.42)
		if r%3 == 0 {
			plantRow(rng, last, last, 0, 1)
		}
		tr.Add(1, last)
	}
	ref := MemberRef{Epoch: 1, Router: last.RouterID}
	evidence := 0
	for key := range tr.pairs {
		if key.a == ref || key.b == ref {
			evidence++
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		tr.Remove(1, last.RouterID)
		tr.Add(1, last)
	})
	// 29 × 1 600 + 600 row pairs are compared; the member is three objects,
	// each evidence pair two, and the maps may grow a bucket.
	if limit := float64(2*evidence + 8); evidence == 0 || allocs > limit {
		t.Fatalf("%v allocations re-adding a digest with %d evidence pairs, want at most %v", allocs, evidence, limit)
	}
}

// TestNilTableKeepsEveryPair is the tiny-span end of both paths: four vertices
// prune at edge probability at least 1, so the tracker stores every row pair,
// and a nil final table joins every vertex pair in the replay and in the
// batch graph alike.
func TestNilTableKeepsEveryPair(t *testing.T) {
	rng := stats.NewRand(5)
	digests := []*Digest{trDigest(rng, 0, 2), trDigest(rng, 1, 2)}
	order := []MemberRef{{Epoch: 1, Router: 0}, {Epoch: 1, Router: 1}}
	tr := NewTracker(TrackerConfig{Reach: 1})
	for _, d := range digests {
		tr.Add(1, d)
	}
	stored := 0
	for _, p := range tr.Snapshot(order).pairs {
		stored += len(p.entries)
	}
	if want := 6 * trTestArrays * trTestArrays; stored != want {
		t.Fatalf("%d row pairs stored over 4 vertices, want all %d", stored, want)
	}
	inc := trIncGraph(tr, order, nil)
	trCompareGraphs(t, "nil table", inc, trBatchGraph(t, digests, nil))
	if inc.NumEdges() != 6 {
		t.Fatalf("nil table gave %d edges over 4 vertices, want 6", inc.NumEdges())
	}
}
