package unaligned

import (
	"math/rand"
	"sync"
	"testing"

	"dcstream/internal/stats"
)

// lambdaPaths returns two tables for the same (n, p*): one memoizing in the
// dense square, one forced onto the mutex+map path that rows wider than
// maxDenseBits take.
func lambdaPaths(t *testing.T, n int, pstar float64) map[string]*LambdaTable {
	t.Helper()
	dense, err := NewLambdaTable(n, pstar)
	if err != nil {
		t.Fatal(err)
	}
	if dense.dense == nil {
		t.Fatalf("a %d-bit table did not get the dense square", n)
	}
	wide, err := NewLambdaTable(n, pstar)
	if err != nil {
		t.Fatal(err)
	}
	wide.dense, wide.memo = nil, map[uint64]int{}
	return map[string]*LambdaTable{"dense": dense, "map": wide}
}

// TestLambdaThresholdIsHyperThreshold: on both memo paths, Threshold(i, j) is
// stats.HyperThreshold(n, min, max, p*) — for every ordered pair of a small
// n, asked twice so the second answer comes from the memo, and for a seeded
// sample at the widths the daemon sees.
func TestLambdaThresholdIsHyperThreshold(t *testing.T) {
	const pstar = 1e-4
	check := func(name string, tab *LambdaTable, i, j int) {
		t.Helper()
		lo, hi := min(i, j), max(i, j)
		want := stats.HyperThreshold(tab.N(), lo, hi, pstar)
		for pass := 0; pass < 2; pass++ {
			if got := tab.Threshold(i, j); got != want {
				t.Fatalf("%s path, n=%d: Threshold(%d, %d) = %d on pass %d, HyperThreshold says %d", name, tab.N(), i, j, got, pass, want)
			}
		}
	}
	for name, tab := range lambdaPaths(t, 40, pstar) {
		for i := 0; i <= 40; i++ {
			for j := 0; j <= 40; j++ {
				check(name, tab, i, j)
			}
		}
	}
	for _, n := range []int{512, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		for name, tab := range lambdaPaths(t, n, pstar) {
			check(name, tab, 0, 0)
			check(name, tab, n, n) // the square's last slot
			check(name, tab, 0, n)
			for k := 0; k < 300; k++ {
				check(name, tab, rng.Intn(n+1), rng.Intn(n+1))
			}
		}
	}
}

// TestLambdaDenseBound: the widest dense table indexes its last slot in
// range, and one bit wider falls back to the map without allocating a
// square an attacker-sized row width could make arbitrarily large.
func TestLambdaDenseBound(t *testing.T) {
	tab, err := NewLambdaTable(maxDenseBits, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.dense) > 1<<22 {
		t.Fatalf("the widest dense square has %d entries, over the 1<<22 cap", len(tab.dense))
	}
	if got, want := tab.Threshold(maxDenseBits, maxDenseBits), stats.HyperThreshold(maxDenseBits, maxDenseBits, maxDenseBits, 1e-4); got != want {
		t.Fatalf("last slot: got %d, want %d", got, want)
	}
	wide, err := NewLambdaTable(1<<26, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if wide.dense != nil || wide.memo == nil {
		t.Fatal("a 64-Mbit row got a dense square")
	}
	// Weights past 1<<16 used to share a memo key with smaller ones.
	a, b := wide.Threshold(3, 1<<16|5), wide.Threshold(3, 5)
	if wa, wb := stats.HyperThreshold(1<<26, 3, 1<<16|5, 1e-4), stats.HyperThreshold(1<<26, 3, 5, 1e-4); a != wa || b != wb {
		t.Fatalf("wide path: got %d and %d, want %d and %d", a, b, wa, wb)
	}
}

// TestLambdaConcurrentReaders: one table, many readers filling and reading
// overlapping slots at once — half of them the way the tracker does, one load
// from the row λ(i, ·) and Threshold only for a slot nobody has filled. Run
// it under -race.
func TestLambdaConcurrentReaders(t *testing.T) {
	const n, pstar, readers = 512, 1e-4, 8
	for name, tab := range lambdaPaths(t, n, pstar) {
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				// Two readers per seed, so every slot is raced for.
				rng := rand.New(rand.NewSource(int64(r / 2)))
				for k := 0; k < 400; k++ {
					i, j := rng.Intn(n+1), rng.Intn(n+1)
					got := -1
					if row := tab.row(i); row != nil && r%2 == 1 {
						got = int(row[j].Load()) - 1
					}
					if got < 0 {
						got = tab.Threshold(i, j)
					}
					if want := stats.HyperThreshold(n, min(i, j), max(i, j), pstar); got != want {
						t.Errorf("%s path: λ(%d, %d) read as %d, want %d", name, i, j, got, want)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestLambdaSymmetricFill: a dense table computes each unordered weight pair
// once and stores it under both orders, so the row λ(i, ·) the tracker reads
// is complete wherever λ(·, i) was asked.
func TestLambdaSymmetricFill(t *testing.T) {
	const n = 96
	tab, err := NewLambdaTable(n, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int{{10, 40}, {40, 41}, {33, 33}, {0, 96}, {96, 5}} {
		i, j := p[0], p[1]
		want := stats.HyperThreshold(n, min(i, j), max(i, j), 1e-4)
		if got := tab.Threshold(i, j); got != want {
			t.Fatalf("Threshold(%d,%d) = %d, HyperThreshold says %d", i, j, got, want)
		}
		if got := tab.row(j)[i].Load(); got != int32(want+1) {
			t.Fatalf("after Threshold(%d,%d) the mirrored slot holds %d, want %d", i, j, got, want+1)
		}
		// The mirrored ask reads that slot — it does not compute again.
		tab.row(j)[i].Store(int32(want + 8))
		if got := tab.Threshold(j, i); i != j && got != want+7 {
			t.Fatalf("Threshold(%d,%d) = %d: computed again instead of reading the mirrored slot", j, i, got)
		}
		tab.row(j)[i].Store(int32(want + 1))
	}
	filled := 0
	for i := 0; i <= n; i++ {
		for j := range tab.row(i) {
			if tab.row(i)[j].Load() != 0 {
				filled++
			}
		}
	}
	if filled != 9 { // four off-diagonal pairs twice, one diagonal once
		t.Fatalf("%d slots filled by five asks, want 9", filled)
	}
	wide, err := NewLambdaTable(maxDenseBits+1, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if wide.row(3) != nil {
		t.Fatal("a table past maxDenseBits hands out a dense row")
	}
}
