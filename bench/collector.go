//go:build linux

package main

import (
	"fmt"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/unaligned"
)

// The collector workload's geometry: the paper's OC-48 aligned bitmap and a
// bank of 8 groups x 10 arrays x 1024 bits, fed full 536-byte segments from a
// Zipfian flow population.
const (
	collectorAlignedBits = 1 << 22
	collectorGroups      = 8
	collectorArrays      = 10
	collectorArrayBits   = 1024
	collectorFlows       = 4096
	collectorZipfS       = 1.2
	collectorContentG    = 30
)

// routerHalf is one router's two collectors and the epoch of traffic it
// replays through them.
type routerHalf struct {
	pkts    []packet.Packet
	planted []packet.Packet // the aligned instance of the planted content
	ac      *aligned.Collector
	uc      *unaligned.Collector
	hash    uint64
}

func buildRouterHalf(seed uint64, packets int) (*routerHalf, error) {
	rng := stats.NewRand(stats.SubSeed(seed, streamTraffic))
	bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
		Packets: packets, SegmentSize: segment, Flows: collectorFlows, ZipfS: collectorZipfS,
	})
	if err != nil {
		return nil, err
	}
	content := trafficgen.NewContent(stats.NewRand(stats.SubSeed(seed, streamContent)), collectorContentG, segment)
	h := &routerHalf{hash: stats.SubSeed(seed, streamHash)}
	h.planted = content.PlantAligned(packet.FlowLabel(1<<40), segment)
	shifted, _ := content.PlantUnaligned(rng, packet.FlowLabel(1<<50), segment)
	h.pkts = trafficgen.Mix(rng, bg, h.planted, shifted)
	if h.ac, err = aligned.NewCollector(aligned.CollectorConfig{Bits: collectorAlignedBits, HashSeed: h.hash}); err != nil {
		return nil, err
	}
	h.uc, err = unaligned.NewCollector(unaligned.CollectorConfig{
		Groups: collectorGroups, ArraysPerGroup: collectorArrays, ArrayBits: collectorArrayBits,
		SegmentSize: segment, HashSeed: h.hash, OffsetSeed: stats.SubSeed(seed, streamTraffic) ^ 0x0ff5e7,
	})
	return h, err
}

// collectorRun is what the router half measured.
type collectorRun struct {
	setupS    []float64
	epochMS   []float64 // per epoch: first packet in to both digests out
	packets   int
	alignedNS float64 // traced run only: per-packet cost of each collector alone
	unalignNS float64
	fill      float64
	failed    int
	why       string
}

// epoch pushes the epoch's packets through both collectors and takes the two
// digests, as a router does at an epoch boundary.
func (h *routerHalf) epoch() (*bitvec.Vector, *unaligned.Digest) {
	h.ac.Reset()
	h.uc.Reset()
	for _, p := range h.pkts {
		h.ac.Update(p)
		h.uc.Update(p)
	}
	return h.ac.Digest(), h.uc.Digest(0)
}

func sameDigest(a, b *unaligned.Digest) bool {
	for g := range a.Rows {
		for i := range a.Rows[g] {
			if !bitvec.Equal(a.Rows[g][i], b.Rows[g][i]) {
				return false
			}
		}
	}
	return true
}

// runCollector times whole epochs through both collectors on one goroutine.
// The same traffic is replayed every epoch, so every epoch must produce the
// first epoch's digests bit for bit, and every packet of the planted content
// must have its bit set.
func runCollector(seed uint64, sz sizes, traced bool) (*collectorRun, error) {
	run := &collectorRun{}
	var h *routerHalf
	for i := 0; i < sz.setups; i++ {
		t0 := time.Now()
		var err error
		if h, err = buildRouterHalf(seed, sz.packets); err != nil {
			return nil, err
		}
		h.epoch() // first touch of the bitmaps and the traffic
		run.setupS = append(run.setupS, time.Since(t0).Seconds())
	}
	wantA, wantU := h.epoch()
	probe, err := aligned.NewCollector(aligned.CollectorConfig{Bits: collectorAlignedBits, HashSeed: h.hash})
	if err != nil {
		return nil, err
	}
	for _, p := range h.planted {
		probe.Update(p)
	}
	if pd := probe.Digest(); bitvec.AndCount(pd, wantA) != pd.OnesCount() {
		run.failed, run.why = len(h.pkts), "aligned digest misses bits of the planted content"
	}
	run.fill = h.ac.FillRatio()

	start := time.Now()
	for time.Since(start) < sz.collectFor {
		t0 := time.Now()
		a, u := h.epoch()
		run.epochMS = append(run.epochMS, ms(time.Since(t0)))
		run.packets += len(h.pkts)
		if !bitvec.Equal(a, wantA) || !sameDigest(u, wantU) {
			run.failed += len(h.pkts)
			run.why = fmt.Sprintf("epoch %d produced different digests from the same packets", len(run.epochMS))
		}
	}

	if traced {
		// Each collector alone over the same packets: the split of the
		// per-packet cost between the two.
		run.alignedNS = perCall(sz.microFor, len(h.pkts), func() {
			for _, p := range h.pkts {
				h.ac.Update(p)
			}
		})
		run.unalignNS = perCall(sz.microFor, len(h.pkts), func() {
			for _, p := range h.pkts {
				h.uc.Update(p)
			}
		})
	}
	return run, nil
}

// endToEnd reports the epochs the way the daemon workloads report theirs: in
// windows of statWindow epochs, the better quartile of the windows, so a
// stretch the host slowed down costs the windows it hit.
func (run *collectorRun) endToEnd() outcome {
	return outcome{
		correct:   run.failed == 0,
		attempted: run.packets,
		failed:    run.failed,
		values: map[string]float64{
			"setup_s":           median(run.setupS),
			"result_lag_p50_ms": lagQuantile(run.epochMS, 0.5),
			"result_lag_p90_ms": lagQuantile(run.epochMS, 0.9),
		},
	}
}

// perCall repeats f for at least d and returns the mean nanoseconds per item,
// where one call of f handles items of them.
func perCall(d time.Duration, items int, f func()) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < d {
		f()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls*items)
}
