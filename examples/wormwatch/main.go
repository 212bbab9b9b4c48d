// Wormwatch: early warning for an email worm — the unaligned case.
//
// An email worm propagates as a fixed binary attachment behind a variable
// SMTP header ("From", "To", "Subject" differ per victim), so the same
// content packetizes differently at every router: the paper's unaligned
// case (§IV). Each router runs the offset-sampling + flow-splitting
// collector; the analysis center (the one dcsd runs) merges the digests,
// induces the random graph, runs the Erdős–Rényi phase-transition test, and
// — when it fires — identifies the infected paths with the greedy core
// finder.
//
//	go run ./examples/wormwatch
package main

import (
	"fmt"
	"log"
	"sort"

	"dcstream/internal/center"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// smtpHeader fabricates a variable-length header like the ones Nimda-era
// mail worms carried: per-victim fields before the fixed attachment bytes.
func smtpHeader(rng interface{ Intn(int) int }, victim int) []byte {
	subjects := []string{"Hi", "Your document", "Re: details", "Important!", "Check this out"}
	h := fmt.Sprintf(
		"From: user%d@infected.example\r\nTo: victim%d@target.example\r\nSubject: %s\r\nMIME-Version: 1.0\r\n\r\n",
		rng.Intn(100000), victim, subjects[rng.Intn(len(subjects))])
	return []byte(h)
}

func main() {
	const (
		routers  = 24
		infected = 14 // links the worm's SMTP sessions cross
		segment  = 536
		wormLen  = 100 // attachment segments ≈ 54 KB binary
	)

	collectorCfg := unaligned.CollectorConfig{
		Groups: 4, ArraysPerGroup: 10, ArrayBits: 1024,
		SegmentSize: segment, FragmentLen: 8, MinPayload: 400,
		HashSeed: 4242,
	}
	cen := center.New(center.Config{
		// At this small scale the default 0.5/n background edge probability
		// leaves fat subcritical tails; a quarter of the phase-transition
		// point keeps the null quiet. The threshold is the largest component
		// in 20 null-model draws of G(96, 0.25/96), 6, plus half again plus 2.
		TargetP1:           0.25 / float64(routers*collectorCfg.Groups),
		ComponentThreshold: 11,
		D:                  3,
	})

	rng := stats.NewRand(99)
	worm := trafficgen.NewContent(rng, wormLen, segment) // the fixed attachment

	for r := 0; r < routers; r++ {
		// Each router draws its own sampling offsets (§IV-A).
		cfg := collectorCfg
		cfg.OffsetSeed = 1234 ^ (uint64(r+1) * 0x9e3779b97f4a7c15)
		col, err := unaligned.NewCollector(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Background: ≈30% array fill of ordinary traffic.
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: 365 * collectorCfg.Groups, SegmentSize: segment,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range bg {
			col.Update(p)
		}
		if r < infected {
			// One worm email crosses this link: variable SMTP header, then
			// the attachment. The header length modulo the segment size is
			// what shifts the packetization.
			hdr := smtpHeader(rng, r)
			obj := append(append([]byte(nil), hdr...), worm.Data...)
			flow := packet.FlowLabel(1<<50 | uint64(r))
			for _, p := range packet.Packetize(flow, obj, segment) {
				col.Update(p)
			}
		}
		cen.Ingest(transport.UnalignedDigest{Epoch: 1, Digest: col.Digest(r)})
	}

	report, err := cen.Analyze(1)
	if err != nil {
		log.Fatal(err)
	}
	outcome := report.Unaligned
	fmt.Printf("ER test: largest connected component %d (threshold %d)\n",
		outcome.ER.LargestComponent, outcome.ER.Threshold)
	if !outcome.ER.PatternDetected {
		fmt.Println("no wide-spread common content this epoch")
		return
	}
	fmt.Println("ALERT: statistically impossible correlation across links — likely worm or spam campaign")
	sort.Ints(outcome.Routers) // pattern order → ascending
	fmt.Printf("  implicated routers: %v\n", outcome.Routers)
	fmt.Printf("  (ground truth: the worm crossed routers 0..%d)\n", infected-1)
	fmt.Println("  next step per §IV-B: enable packet logging at these routers to extract the signature")
}
