//go:build linux

package main

import (
	"fmt"
	"math"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// unalignedFill is the share of bits the background traffic sets in every
// unaligned array; the aligned share is per workload. Bench-scale digests are
// far narrower than line-rate ones, so each collector gets a stream sized to
// its own width.
const unalignedFill = 0.25

// packetsForFill is how many distinct random payloads set fill of bits.
func packetsForFill(bits int, fill float64) int {
	return int(math.Ceil(-float64(bits) * math.Log(1-fill)))
}

// routerPool is one router's digests, one per variant. Variant 0 is the
// planted epochs' digest: on carriers it holds the planted content on top of
// its background.
type routerPool struct {
	aligned   []*bitvec.Vector
	unaligned []*unaligned.Digest
}

// pools holds every digest a daemon workload sends, generated from the seed
// by the real collectors over trafficgen traffic.
type pools struct {
	w       workload
	routers []routerPool
	packets int // packets pushed through the collectors to build the pools
}

// Stream ids for stats.SubSeed; every (router, variant) gets its own stream.
const (
	streamHash = iota
	streamContent
	streamThink
	streamTraffic // + router*poolVariants + variant
)

func buildPools(w workload, seed uint64) (*pools, error) {
	hashSeed := stats.SubSeed(seed, streamHash)
	crng := stats.NewRand(stats.SubSeed(seed, streamContent))
	alignedContent := trafficgen.NewContent(crng, w.alignedG, alignedSegment)
	unalignedContent := trafficgen.NewContent(crng, w.unalignedG, segment)

	p := &pools{w: w, routers: make([]routerPool, w.fleet)}
	for r := 0; r < w.fleet; r++ {
		for v := 0; v < poolVariants; v++ {
			carry := v == 0 && r < w.carriers()
			stream := stats.SubSeed(seed, streamTraffic+uint64(r*poolVariants+v))
			rng := stats.NewRand(stream)
			rp := &p.routers[r]

			ac, err := aligned.NewCollector(aligned.CollectorConfig{Bits: w.alignedBits, HashSeed: hashSeed})
			if err != nil {
				return nil, err
			}
			bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
				Packets: packetsForFill(w.alignedBits, w.alignedFill), SegmentSize: alignedSegment,
			})
			if err != nil {
				return nil, err
			}
			for _, pkt := range bg {
				ac.Update(pkt)
			}
			p.packets += len(bg)
			if carry {
				for _, pkt := range alignedContent.PlantAligned(packet.FlowLabel(1<<40|uint64(r)), alignedSegment) {
					ac.Update(pkt)
				}
			}
			rp.aligned = append(rp.aligned, ac.Digest())

			if w.groups == 0 {
				continue
			}
			uc, err := unaligned.NewCollector(unaligned.CollectorConfig{
				Groups: w.groups, ArraysPerGroup: w.arrays, ArrayBits: w.arrayBits,
				SegmentSize: segment, HashSeed: hashSeed,
				OffsetSeed: stream ^ 0x0ff5e7,
			})
			if err != nil {
				return nil, err
			}
			perGroup := packetsForFill(w.arrayBits, unalignedFill)
			bg, err = trafficgen.Background(rng, trafficgen.BackgroundConfig{
				Packets: perGroup * w.groups, SegmentSize: segment,
				Flows: 64 * w.groups, ZipfS: 1.2,
			})
			if err != nil {
				return nil, err
			}
			for _, pkt := range bg {
				uc.Update(pkt)
			}
			p.packets += len(bg)
			if carry {
				inst, _ := unalignedContent.PlantUnaligned(rng, packet.FlowLabel(1<<50|uint64(r)), segment)
				for _, pkt := range inst {
					uc.Update(pkt)
				}
			}
			rp.unaligned = append(rp.unaligned, uc.Digest(r))
		}
	}
	return p, nil
}

// variant names an epoch's digest set: epochs with equal variants carry
// identical digests, so one reference analysis serves all of them.
func variant(epoch int) int { return epoch % poolVariants }

// planted reports whether epoch e carries the planted content.
func planted(epoch int) bool { return variant(epoch) == 0 }

// epochMessages appends epoch e's burst — every router's digests, router by
// router as real routers flush at epoch end — to dst.
//
// The last router runs the aligned collector only, so the burst ends with a
// router's first digest of the epoch. That keeps the daemon's quorum gate
// (-min-routers = fleet) closed until the whole burst is in. Without it dcsd
// closes an epoch one digest short about once in 64 lockstep epochs: its
// quiescence test compares two digest counts taken one tick apart, but takes
// each after that tick's analyses, so a long analysis leaves the two counts
// microseconds apart, and the gate no longer objects once every router has
// reported something.
func (p *pools) epochMessages(dst []transport.Message, epoch int) []transport.Message {
	v := variant(epoch)
	for r := range p.routers {
		rp := &p.routers[r]
		dst = append(dst, transport.AlignedDigest{RouterID: r, Epoch: epoch, Bitmap: rp.aligned[v]})
		if p.w.groups > 0 && r < len(p.routers)-1 {
			dst = append(dst, transport.UnalignedDigest{Epoch: epoch, Digest: rp.unaligned[v]})
		}
	}
	return dst
}

func (p *pools) String() string {
	return fmt.Sprintf("%d routers x %d variants, %d packets collected", len(p.routers), poolVariants, p.packets)
}
