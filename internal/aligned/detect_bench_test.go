package aligned

import (
	"fmt"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/stats"
)

// benchWindow accumulates one window of routers digests of the given width
// and fill, as the center does, the first 3/8 of the fleet carrying g common
// columns when planted — the three geometries of `go run ./bench`.
func benchWindow(routers, bits int, fill float64, g int) *Accumulator {
	rng := stats.NewRand(uint64(routers*bits + g))
	content := stats.SampleDistinct(rng, bits, g)
	acc := NewAccumulator()
	for r := 0; r < routers; r++ {
		v := bitvec.New(bits)
		v.FillRandom(fill, rng.Float64)
		if r < routers*3/8 {
			for _, j := range content {
				v.Set(j)
			}
		}
		acc.Add(r, v)
	}
	return acc
}

// BenchmarkDetect is one finalize's level scan on the accumulator's own
// matrix, serial, at the bench geometries: mixed-udp (one-word columns),
// wide-tcp-slide's three-epoch span, small-udp (four-word columns).
func BenchmarkDetect(b *testing.B) {
	for _, g := range []struct {
		rows, bits, subset int
		fill               float64
		content            int
	}{{32, 8192, 512, 0.25, 40}, {48, 65536, 512, 0.04, 60}, {256, 512, 32, 0.25, 24}} {
		for _, planted := range []bool{true, false} {
			content, tag := 0, "empty"
			if planted {
				content, tag = g.content, "planted"
			}
			b.Run(fmt.Sprintf("%dx%d/%s", g.rows, g.bits, tag), func(b *testing.B) {
				acc := benchWindow(g.rows, g.bits, g.fill, content)
				cfg := RefinedConfig(g.subset)
				cfg.Workers = -1
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, weights := acc.Matrix()
					det, err := DetectWithWeights(m, weights, cfg)
					if err != nil || det.Found != planted {
						b.Fatalf("found %v, planted %v, err %v", det.Found, planted, err)
					}
				}
			})
		}
	}
}

// BenchmarkStitchSpan is wide-tcp-slide's span stitch: three epochs of 16
// routers' 65 536-bit digests at 4% fill into one 48-row matrix.
func BenchmarkStitchSpan(b *testing.B) {
	accs := []*Accumulator{benchWindow(16, 65536, 0.04, 0), benchWindow(16, 65536, 0.04, 1), benchWindow(16, 65536, 0.04, 2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StitchSpan(accs)
	}
}
