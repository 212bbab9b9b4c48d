package center

import (
	"flag"
	"math"
	"strings"
	"testing"

	"dcstream/internal/unaligned"
)

// TestConfigValidate walks every Config field to the edge of its range: the
// last value Validate accepts and the first it refuses, the refusal naming
// the field, and New panicking on it with the same message. A field with no
// refused value is accepted at its extremes.
func TestConfigValidate(t *testing.T) {
	negZero := math.Nextafter(0, -1)
	for _, row := range []struct {
		field       string
		last, first Config // last accepted, first refused
	}{
		{"SubsetSize", Config{SubsetSize: 2}, Config{SubsetSize: 1}},
		{"SubsetSize", Config{SubsetSize: 0}, Config{SubsetSize: -1}},
		{"TargetP1", Config{TargetP1: 0}, Config{TargetP1: negZero}},
		{"TargetP1", Config{TargetP1: math.Inf(1)}, Config{TargetP1: math.NaN()}},
		{"CoreP1", Config{CoreP1: 0}, Config{CoreP1: negZero}},
		{"CoreP1", Config{CoreP1: math.Inf(1)}, Config{CoreP1: math.NaN()}},
		{"ComponentThreshold", Config{ComponentThreshold: 2}, Config{ComponentThreshold: 1}},
		{"ComponentThreshold", Config{ComponentThreshold: 0}, Config{ComponentThreshold: -1}},
		{"Beta", Config{Beta: 0}, Config{Beta: -1}},
		{"D", Config{D: 0}, Config{D: -1}},
		{"Analysis", Config{Analysis: AnalysisBatch}, Config{Analysis: AnalysisBatch + 1}},
		{"Analysis", Config{Analysis: AnalysisIncremental}, Config{Analysis: -1}},
		{"WindowSlide", Config{WindowSlide: 0}, Config{WindowSlide: -1}},
		{"WindowSlide", Config{WindowSlide: math.MaxInt32}, Config{WindowSlide: math.MaxInt32 + 1}},
		// A negative ring used to be clamped to one; zero derives max(4, W+1).
		{"MaxEpochs", Config{MaxEpochs: 1}, Config{MaxEpochs: -1}},
		{"MaxEpochs", Config{WindowSlide: 3, MaxEpochs: 4}, Config{WindowSlide: 3, MaxEpochs: 3}},
		{"MemoryBudgetBytes", Config{MemoryBudgetBytes: 0}, Config{MemoryBudgetBytes: -1}},
		{"Shedding", Config{Shedding: RejectNew}, Config{Shedding: RejectNew + 1}},
		{"Shedding", Config{Shedding: ShedOldest}, Config{Shedding: -1}},
		{"MinRouters", Config{MinRouters: 0}, Config{MinRouters: -1}},
		{"MaxWait", Config{MaxWait: 0}, Config{MaxWait: -1}},
		{"MaxWait", Config{MaxWait: math.MaxInt32}, Config{MaxWait: math.MaxInt32 + 1}},
	} {
		t.Run(row.field, func(t *testing.T) {
			if err := row.last.Validate(); err != nil {
				t.Fatalf("%+v refused: %v", row.last, err)
			}
			New(row.last)
			err := row.first.Validate()
			if err == nil || !strings.Contains(err.Error(), row.field) {
				t.Fatalf("%+v: Validate says %v, want a refusal naming %s", row.first, err, row.field)
			}
			defer func() {
				if p := recover(); p == nil || !strings.Contains(p.(error).Error(), row.field) {
					t.Fatalf("New(%+v) panicked with %v, want the refusal naming %s", row.first, p, row.field)
				}
			}()
			New(row.first)
		})
	}
	t.Run("no refused value", func(t *testing.T) {
		for _, cfg := range []Config{
			{Parallelism: math.MinInt},
			{Parallelism: math.MaxInt},
			{OwnsEpoch: func(int) bool { return false }, OwnsSpan: func(int) bool { return false }},
		} {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%+v refused: %v", cfg, err)
			}
		}
	})
}

// TestConfigValidateEdgeProbabilities: every edge probability Validate
// accepts, explicit or derived from a vertex count, gives a p* in (0, 1] at
// every array count admission accepts (any positive one; swept here to 2^31
// arrays per group, so 2^62 row pairs), so no λ table an analysis asks for is
// refused; the values it refuses give none.
func TestConfigValidateEdgeProbabilities(t *testing.T) {
	accepted := []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-7, 1e-6,
		math.Nextafter(1e-6, 1), 1e-3, 0.5, math.Nextafter(1, 0), 1, 2, math.Inf(1)}
	for n := 2; n <= 1<<30; n *= 2 {
		accepted = append(accepted, 0.5/float64(n), 8/float64(n)) // TargetP1, CoreP1 zero
	}
	for _, p1 := range accepted {
		if err := (Config{TargetP1: p1, CoreP1: p1}).Validate(); err != nil {
			t.Fatalf("p1 %v refused: %v", p1, err)
		}
		for arrays := 1; arrays <= 1<<31; arrays *= 2 {
			if p := unaligned.PStarForEdgeProbability(p1, arrays*arrays); !(p > 0 && p <= 1) {
				t.Errorf("p1 %v at %d arrays per group: p* %v outside (0, 1]", p1, arrays, p)
			}
		}
	}
	for _, p1 := range []float64{math.NaN(), math.Nextafter(0, -1), -1, math.Inf(-1)} {
		if (Config{TargetP1: p1}).Validate() == nil || (Config{CoreP1: p1}).Validate() == nil {
			t.Errorf("p1 %v accepted", p1)
		}
		if p := unaligned.PStarForEdgeProbability(p1, 100); p > 0 && p <= 1 {
			t.Errorf("refused p1 %v has a p* %v", p1, p)
		}
	}
}

// TestRefuseZeroFlags: an explicit 0 on a flag whose field reads zero as the
// default is refused, naming the flag; any other value, and a 0 left as a
// flag's default, passes to Validate.
func TestRefuseZeroFlags(t *testing.T) {
	for _, row := range []struct {
		args []string
		want string // "" = no refusal
	}{
		{nil, ""},
		{[]string{"-subset", "0"}, "-subset 0"},
		{[]string{"-beta", "3", "-er-threshold", "0", "-d", "0"}, "-d 0"}, // first in name order
		{[]string{"-d", "00"}, "-d 0"},
		{[]string{"-max-wait", "0"}, "-max-wait 0"},
		{[]string{"-beta", "-1", "-workers", "0"}, ""},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		for _, name := range []string{"subset", "er-threshold", "beta", "d", "max-wait", "workers"} {
			fs.Int(name, 0, "")
		}
		if err := fs.Parse(row.args); err != nil {
			t.Fatal(err)
		}
		err := RefuseZeroFlags(fs)
		if row.want == "" && err != nil || row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)) {
			t.Errorf("%v: refusal %v, want one naming %q", row.args, err, row.want)
		}
	}
}
