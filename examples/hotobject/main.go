// Hotobject: detecting a hot P2P file against Zipf-skewed backbone traffic,
// and why per-link detection fails — the paper's core motivation (§I-A).
//
// A newly released file is fetched through many different links, but only
// once or twice per link, so a single-vantage prevalence detector
// (EarlyBird-style) never fires. Raw aggregation sees it perfectly but has
// to ship every payload byte to the center. DCS detects it from digests
// three orders of magnitude smaller.
//
//	go run ./examples/hotobject
package main

import (
	"fmt"
	"log"

	"dcstream/internal/aligned"
	"dcstream/internal/baseline"
	"dcstream/internal/center"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
)

func main() {
	const (
		routers    = 40
		carriers   = 18 // links the hot file crosses
		segment    = 536
		fileChunks = 25
		localAlarm = 5 // EarlyBird-style local repetition threshold
	)

	cen := center.New(center.Config{SubsetSize: 1024})
	var digestBytes int64
	agg := baseline.NewRawAggregator(77)
	locals := make([]*baseline.LocalDetector, routers)

	rng := stats.NewRand(5)
	hotFile := trafficgen.NewContent(rng, fileChunks, segment)

	for r := 0; r < routers; r++ {
		col, err := aligned.NewCollector(aligned.CollectorConfig{Bits: 1 << 16, HashSeed: 77})
		if err != nil {
			log.Fatal(err)
		}
		locals[r] = baseline.NewLocalDetector(77, localAlarm)
		// Zipf-skewed flow mix, like real backbone traffic.
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: 20000, SegmentSize: segment, Flows: 4000, ZipfS: 1.2,
		})
		if err != nil {
			log.Fatal(err)
		}
		var pkts []packet.Packet
		pkts = append(pkts, bg...)
		if r < carriers {
			pkts = trafficgen.Mix(rng, pkts, hotFile.PlantAligned(packet.FlowLabel(1<<40|uint64(r)), segment))
		}
		for _, p := range pkts {
			col.Update(p)
			locals[r].Observe(p)
			agg.Observe(r, p)
		}
		d := col.Digest()
		digestBytes += int64(len(d.Words()) * 8)
		cen.Ingest(transport.AlignedDigest{RouterID: r, Epoch: 1, Bitmap: d})
	}

	// 1. Single-vantage baseline: does any router alarm on the hot file?
	fileAlarms := 0
	chunkFp := map[uint64]bool{}
	for _, p := range hotFile.PlantAligned(0, segment) {
		chunkFp[locals[0].Fingerprint(p.Payload)] = true
	}
	for _, d := range locals {
		for _, fp := range d.Alarms() {
			if chunkFp[fp] {
				fileAlarms++
				break
			}
		}
	}
	fmt.Printf("EarlyBird-style local detectors (threshold %d): %d/%d routers alarmed on the hot file\n",
		localAlarm, fileAlarms, routers)

	// 2. Raw aggregation: perfect but unshippable.
	common := agg.CommonPayloads(carriers)
	fmt.Printf("raw aggregation: %d payloads seen at >= %d routers, at the cost of shipping %.1f MB\n",
		len(common), carriers, float64(agg.BytesShipped())/1e6)

	// 3. DCS: same answer from kilobytes of digests.
	report, err := cen.Analyze(1)
	if err != nil {
		log.Fatal(err)
	}
	outcome := report.Aligned
	fmt.Printf("DCS: shipped %.1f KB of digests (%.0fx less than raw)\n",
		float64(digestBytes)/1e3,
		float64(agg.BytesShipped())/float64(digestBytes))
	if !outcome.Detection.Found {
		fmt.Println("DCS: no common content found (unexpected for this scenario)")
		return
	}
	hit := 0
	for _, r := range outcome.RouterIDs {
		if r < carriers {
			hit++
		}
	}
	fmt.Printf("DCS: hot object detected; %d/%d carrier links identified (%d total flagged)\n",
		hit, carriers, len(outcome.RouterIDs))
}
