// Package experiments regenerates every table and figure of the paper's
// evaluation (§V), plus the shard-tier scaling table. Each experiment is one
// file: a parameter struct, an XParamsFor constructor that sizes it for a
// Scale (test: seconds, used by the test suite; default: tens of seconds;
// paper: the paper's full dimensions, minutes), a RunX driver, and a result
// whose Table method renders rows directly comparable to the paper's. All is
// the one list of them; dcsbench and the root BenchmarkExperiments iterate it.
//
// System performance is not measured here: `go run ./bench` drives the real
// dcsd end to end and attributes its time layer by layer (bench/README.md).
//
// EXPERIMENTS.md records paper-versus-measured values and discusses the two
// places where the paper's published constants are not recoverable from its
// stated formulas (Table II/III magnitudes; Figure 13's implied edge
// probability), along with the array-fill analysis that reconciles them.
package experiments

import (
	"fmt"
	"strings"
)

// Scale selects experiment sizing.
type Scale int

// The three standard experiment scales.
const (
	// ScaleTest shrinks everything so the whole suite runs in seconds.
	ScaleTest Scale = iota
	// ScaleDefault balances fidelity and single-core runtime.
	ScaleDefault
	// ScalePaper uses the paper's full dimensions.
	ScalePaper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleDefault:
		return "default"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "test":
		return ScaleTest, nil
	case "default", "":
		return ScaleDefault, nil
	case "paper", "full":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (want test|default|paper)", s)
}

// Result is what every driver returns: the rows of one table or figure.
type Result interface{ Table() string }

// Experiment is one registry entry: the name `dcsbench -exp` and
// BenchmarkExperiments/<name> select, and the driver at its standard sizing
// for a scale. workers is the trial/scan fan-out (0 = GOMAXPROCS, negative =
// serial). The Result is meaningful only when the error is nil.
type Experiment struct {
	Name string
	Run  func(seed uint64, s Scale, workers int) (Result, error)
}

// All is every experiment, in the order `dcsbench -exp all` runs them. Adding
// one is its own file plus one line here: dcsbench (and its -exp usage
// string), BenchmarkExperiments and TestRegistry all iterate this slice.
// TestRegistry also makes each entry either prove worker independence or say
// why it is exempt.
var All = []Experiment{
	{"fig7", fig7},
	{"fig11", fig11},
	{"fig12", fig12},
	{"fig13", fig13},
	{"table1", table1},
	{"table2", table2},
	{"table3", table3},
	{"stress", stress},
	{"complexity", complexity},
	{"persistence", persistence},
	{"ablation-offsets", ablationOffsets},
	{"ablation-hopefuls", ablationHopefuls},
	{"ablation-sampling", ablationSampling},
	{"shards", shards},
}

// table renders an ASCII table with a header row.
func table(title string, header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
