package center

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/stats"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// randomUnaligned is a background-only unaligned digest: groups × 10 arrays
// of 512 bits, each bit set with probability 0.42.
func randomUnaligned(rng *rand.Rand, router, groups int) *unaligned.Digest {
	d := &unaligned.Digest{RouterID: router, Rows: make([][]*bitvec.Vector, groups)}
	for g := range d.Rows {
		for a := 0; a < 10; a++ {
			v := bitvec.New(512)
			v.FillRandom(0.42, rng.Float64)
			d.Rows[g] = append(d.Rows[g], v)
		}
	}
	return d
}

// TestQuorumDegradedTinySpanReports is "degraded, never wrong, never silent"
// at the smallest span: a 24-router fleet of four-group routers reports epoch
// 1 whole, then only routers 0 and 1 report epoch 2. The drained epoch 2 is 8
// vertices with its ER threshold rescaled to 2, so a single chance edge fires
// the test and the core step runs at edge probability 8/8 = 1. Every seed
// must still close with a Degraded report naming the 22 absentees, never an
// analysis error.
func TestQuorumDegradedTinySpanReports(t *testing.T) {
	const fleet = 24
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRand(seed)
		c := New(Config{MinRouters: fleet, MaxWait: 1})
		for r := 0; r < fleet; r++ {
			c.Ingest(transport.UnalignedDigest{Epoch: 1, Digest: randomUnaligned(rng, r, 4)})
		}
		if _, _, err := c.CloseNext(CloseDrain); err != nil {
			t.Fatalf("seed %d: epoch 1: %v", seed, err)
		}
		for r := 0; r < 2; r++ {
			c.Ingest(transport.UnalignedDigest{Epoch: 2, Digest: randomUnaligned(rng, r, 4)})
		}
		rep, _, err := c.CloseNext(CloseDrain)
		if err != nil {
			t.Errorf("seed %d: epoch 2 lost its report: %v", seed, err)
			continue
		}
		if rep.Epoch != 2 || !rep.Degraded || len(rep.MissingRouters) != fleet-2 || rep.Unaligned == nil {
			t.Errorf("seed %d: epoch 2 report %+v, want Degraded with %d missing routers", seed, rep, fleet-2)
		}
	}
}

// TestTinySpanCoreGraphIncrementalMatchesBatch runs single-epoch spans of 5 to
// 8 one-group routers with ComponentThreshold 2 through both analysis modes.
// Their core edge probability 8/n is at least 1, so the core graph keeps every
// vertex pair; each seed must report, the same in both modes, and a fired ER
// test must name every router of the span.
func TestTinySpanCoreGraphIncrementalMatchesBatch(t *testing.T) {
	for n := 5; n <= 8; n++ {
		t.Run(fmt.Sprintf("%d vertices", n), func(t *testing.T) {
			fired := 0
			for seed := uint64(1); seed <= 20; seed++ {
				rng := stats.NewRand(seed)
				var steps []streamStep
				for r := 0; r < n; r++ {
					steps = append(steps, msgStep(transport.UnalignedDigest{Epoch: 1, Digest: randomUnaligned(rng, r, 1)}))
				}
				steps = append(steps, analyzeStep(1))
				outs := map[AnalysisMode]streamOutcome{}
				for _, mode := range []AnalysisMode{AnalysisBatch, AnalysisIncremental} {
					out := runStream(Config{ComponentThreshold: 2, Analysis: mode}, steps)
					if out.Errors[0] != "" {
						t.Errorf("seed %d, analysis mode %d: %s", seed, mode, out.Errors[0])
					}
					outs[mode] = out
				}
				if !reflect.DeepEqual(outs[AnalysisBatch], outs[AnalysisIncremental]) {
					t.Fatalf("seed %d: incremental diverged from batch:\nbatch       %+v\nincremental %+v",
						seed, outs[AnalysisBatch].Reports, outs[AnalysisIncremental].Reports)
				}
				u := outs[AnalysisBatch].Reports[0].Unaligned
				if u == nil || !u.ER.PatternDetected {
					continue
				}
				fired++
				if len(u.Routers) != n {
					t.Fatalf("seed %d: ER fired but the pattern names routers %v of %d", seed, u.Routers, n)
				}
			}
			if fired == 0 {
				t.Fatal("no seed fired the ER test: the core step was never reached")
			}
		})
	}
}
