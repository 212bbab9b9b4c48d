// Package dcstream's root benchmark regenerates every entry of
// experiments.All once per iteration at ScaleDefault sizing. Run the suite
// with
//
//	go test -bench=. -benchmem
//
// or regenerate a single artifact, e.g.
//
//	go test -bench='BenchmarkExperiments/fig13$' -benchtime=1x -v
//
// Under -v each experiment's table is printed on its first iteration, so
// `-benchtime=1x -v` doubles as a report generator; cmd/dcsbench offers the
// same with scale/seed control. The system benchmark is `go run ./bench`.
package dcstream

import (
	"testing"

	"dcstream/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run(uint64(i+1), experiments.ScaleDefault, 0)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && testing.Verbose() {
					b.Log("\n" + res.Table())
				}
			}
		})
	}
}
