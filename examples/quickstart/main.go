// Quickstart: the smallest end-to-end DCS deployment.
//
// 40 simulated routers each observe an epoch of background traffic; 16 of
// them also carry one instance of the same 20-packet object (the aligned
// case — think a hot file fetched through different links). Each router
// reduces its traffic to a 64 Kbit digest and ships it to the analysis
// center (the one dcsd runs), which stacks the digests and runs the greedy
// ASID detector.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dcstream/internal/aligned"
	"dcstream/internal/center"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
)

func main() {
	const (
		routers  = 40
		carriers = 16
		segment  = 536
	)

	cen := center.New(center.Config{SubsetSize: 1024})
	rng := stats.NewRand(7)
	content := trafficgen.NewContent(rng, 20, segment)

	var rawBytes, digestBytes int64
	for r := 0; r < routers; r++ {
		col, err := aligned.NewCollector(aligned.CollectorConfig{Bits: 1 << 16, HashSeed: 2026})
		if err != nil {
			log.Fatal(err)
		}
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: 20000, SegmentSize: segment,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range bg {
			col.Update(p)
			rawBytes += int64(len(p.Payload))
		}
		if r < carriers {
			for _, p := range content.PlantAligned(packet.FlowLabel(r), segment) {
				col.Update(p)
				rawBytes += int64(len(p.Payload))
			}
		}
		d := col.Digest()
		digestBytes += int64(len(d.Words()) * 8)
		cen.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: d})
	}

	report, err := cen.Analyze(1)
	if err != nil {
		log.Fatal(err)
	}
	outcome := report.Aligned

	fmt.Printf("epoch analyzed: %d routers, %.1f MB of raw traffic, %.1f KB of digests (%.0fx reduction)\n",
		routers, float64(rawBytes)/1e6, float64(digestBytes)/1e3,
		float64(rawBytes)/float64(digestBytes))
	if !outcome.Detection.Found {
		fmt.Println("no common content found")
		return
	}
	fmt.Printf("common content detected after %d greedy iterations\n", outcome.Detection.Iterations)
	fmt.Printf("  routers implicated (%d): %v\n", len(outcome.RouterIDs), outcome.RouterIDs)
	fmt.Printf("  shared packet signature: %d bitmap columns (core %d)\n",
		len(outcome.Detection.Cols), len(outcome.Detection.CoreCols))
	fmt.Printf("  (ground truth: routers 0..%d carried a %d-packet object)\n",
		carriers-1, content.Segments(segment))
}
