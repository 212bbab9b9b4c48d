// Package simulate wires the synthetic traffic generator to fleets of
// collection modules, playing the role of the network in Figure 2: many
// routers each observe background traffic, some of them additionally carry
// an instance of a common content, and every router emits its per-epoch
// digest. The experiment harness, the examples, and the end-to-end tests
// all drive the system through these scenario runners.
package simulate

import (
	"fmt"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// AlignedScenario describes one aligned-case epoch across a router fleet.
type AlignedScenario struct {
	// Seed drives all randomness (traffic, prefixes, flow choice).
	Seed uint64
	// Routers is the fleet size (matrix rows).
	Routers int
	// Collector configures every router's bitmap module (HashSeed shared).
	Collector aligned.CollectorConfig
	// BackgroundPackets is the per-router background packet count.
	BackgroundPackets int
	// SegmentSize is the payload size of background and content packets.
	SegmentSize int
	// ContentPackets, when positive, plants a common content of that many
	// segments at the Carriers.
	ContentPackets int
	// Carriers lists the routers that see one aligned instance each.
	Carriers []int
}

// Validate reports whether the scenario is runnable.
func (sc AlignedScenario) Validate() error {
	if sc.Routers <= 0 {
		return fmt.Errorf("simulate: need at least one router")
	}
	if err := sc.Collector.Validate(); err != nil {
		return err
	}
	if sc.BackgroundPackets < 0 || sc.ContentPackets < 0 {
		return fmt.Errorf("simulate: negative packet count")
	}
	if sc.SegmentSize <= 0 {
		return fmt.Errorf("simulate: segment size must be positive")
	}
	for _, c := range sc.Carriers {
		if c < 0 || c >= sc.Routers {
			return fmt.Errorf("simulate: carrier %d outside router range [0,%d)", c, sc.Routers)
		}
	}
	return nil
}

// AlignedResult is the outcome of an aligned scenario run.
type AlignedResult struct {
	// Digests holds one bitmap per router, index = router id.
	Digests []*bitvec.Vector
	// Matrix is the stacked analysis matrix.
	Matrix *aligned.Matrix
	// ContentColumns are the bitmap indices of the planted content's
	// packets (ground truth for evaluating detection), nil without content.
	ContentColumns []int
}

// RunAligned executes the scenario.
func RunAligned(sc AlignedScenario) (*AlignedResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRand(sc.Seed)
	var content trafficgen.Content
	var instance []packet.Packet
	if sc.ContentPackets > 0 {
		content = trafficgen.NewContent(rng, sc.ContentPackets, sc.SegmentSize)
	}
	carrier := make(map[int]bool, len(sc.Carriers))
	for _, c := range sc.Carriers {
		carrier[c] = true
	}

	res := &AlignedResult{Digests: make([]*bitvec.Vector, sc.Routers)}
	// One collector stands in for every router in turn: they share the
	// configuration, and Digest is a snapshot.
	col, err := aligned.NewCollector(sc.Collector)
	if err != nil {
		return nil, err
	}
	for r := 0; r < sc.Routers; r++ {
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: sc.BackgroundPackets, SegmentSize: sc.SegmentSize,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range bg {
			col.Update(p)
		}
		if carrier[r] && sc.ContentPackets > 0 {
			instance = content.PlantAligned(packet.FlowLabel(1<<40|uint64(r)), sc.SegmentSize)
			for _, p := range instance {
				col.Update(p)
			}
		}
		res.Digests[r] = col.Digest()
		col.Reset()
	}
	res.Matrix = aligned.FromDigests(res.Digests)

	if sc.ContentPackets > 0 && len(sc.Carriers) > 0 {
		// Ground truth: the columns the fleet's collectors map the content's
		// packets to.
		seen := map[int]bool{}
		for _, p := range content.PlantAligned(0, sc.SegmentSize) {
			idx := col.Column(p.Payload)
			if !seen[idx] {
				seen[idx] = true
				res.ContentColumns = append(res.ContentColumns, idx)
			}
		}
	}
	return res, nil
}

// DigestMessages stamps the result's digests with a measurement epoch for
// the transport leg: one wire message per router, ready for Client.Send or
// Center.Ingest.
func (r *AlignedResult) DigestMessages(epoch int) []transport.AlignedDigest {
	out := make([]transport.AlignedDigest, len(r.Digests))
	for router, d := range r.Digests {
		out[router] = transport.AlignedDigest{RouterID: router, Epoch: epoch, Bitmap: d}
	}
	return out
}

// DigestMessagesExcept is DigestMessages minus the given routers — the
// partition workload, where a cut-off router's digest never escapes its side
// of the partition. Router order is preserved; the returned slice is no
// longer indexable by router id.
func (r *AlignedResult) DigestMessagesExcept(epoch int, skip ...int) []transport.AlignedDigest {
	drop := make(map[int]bool, len(skip))
	for _, s := range skip {
		drop[s] = true
	}
	out := make([]transport.AlignedDigest, 0, len(r.Digests))
	for router, d := range r.Digests {
		if drop[router] {
			continue
		}
		out = append(out, transport.AlignedDigest{RouterID: router, Epoch: epoch, Bitmap: d})
	}
	return out
}

// EpochSpec describes one epoch of a multi-epoch aligned run: which routers
// carry a common content this epoch and how long it is (0 = pure background
// epoch).
type EpochSpec struct {
	Epoch          int
	Carriers       []int
	ContentPackets int
}

// RunAlignedEpochs plays the base scenario once per spec, deriving a fresh
// traffic seed per epoch (so background differs epoch to epoch, as it would
// on a real link) while the fleet and collector configuration stay fixed.
// The returned map is keyed by EpochSpec.Epoch. This is the workload for
// exercising epoch-windowed ingest: several epochs' digests from the same
// routers, safe to interleave over one connection.
func RunAlignedEpochs(base AlignedScenario, specs []EpochSpec) (map[int]*AlignedResult, error) {
	out := make(map[int]*AlignedResult, len(specs))
	for _, spec := range specs {
		sc := base
		sc.Seed = base.Seed ^ (uint64(spec.Epoch+1) * 0x9e3779b97f4a7c15)
		sc.Carriers = spec.Carriers
		sc.ContentPackets = spec.ContentPackets
		if _, dup := out[spec.Epoch]; dup {
			return nil, fmt.Errorf("simulate: epoch %d specified twice", spec.Epoch)
		}
		res, err := RunAligned(sc)
		if err != nil {
			return nil, fmt.Errorf("simulate: epoch %d: %w", spec.Epoch, err)
		}
		out[spec.Epoch] = res
	}
	return out, nil
}

// UnalignedScenario describes one unaligned-case epoch across a fleet.
type UnalignedScenario struct {
	Seed    uint64
	Routers int
	// Collector configures every router's module; each router gets its own
	// OffsetSeed derived from Seed and its id, as the paper prescribes.
	Collector unaligned.CollectorConfig
	// BackgroundPackets is the per-router background packet count.
	BackgroundPackets int
	// BackgroundFlows and ZipfS, when set, draw background flows from a
	// Zipf popularity distribution (the bursty §V-B.4 regime). Zero keeps
	// one flow per packet (the even-split Monte-Carlo assumption).
	BackgroundFlows int
	ZipfS           float64
	// ContentPackets, when positive, plants an unaligned common content.
	ContentPackets int
	// Carriers lists routers seeing one unaligned instance each (random
	// prefix length per instance).
	Carriers []int
}

// Validate reports whether the scenario is runnable.
func (sc UnalignedScenario) Validate() error {
	if sc.Routers <= 0 {
		return fmt.Errorf("simulate: need at least one router")
	}
	if err := sc.Collector.Validate(); err != nil {
		return err
	}
	if sc.BackgroundPackets < 0 || sc.ContentPackets < 0 {
		return fmt.Errorf("simulate: negative packet count")
	}
	for _, c := range sc.Carriers {
		if c < 0 || c >= sc.Routers {
			return fmt.Errorf("simulate: carrier %d outside router range [0,%d)", c, sc.Routers)
		}
	}
	return nil
}

// UnalignedResult is the outcome of an unaligned scenario run.
type UnalignedResult struct {
	// Digests holds one digest per router, index = router id.
	Digests []*unaligned.Digest
	// CarrierVertices are the (router, group) vertices that actually carry
	// the planted content — ground truth for detector evaluation.
	CarrierVertices []unaligned.Vertex
	// PrefixLens records the prefix length drawn for each carrier, aligned
	// with CarrierVertices.
	PrefixLens []int
}

// DigestMessages stamps the result's digests with a measurement epoch for
// the transport leg (one wire message per router).
func (r *UnalignedResult) DigestMessages(epoch int) []transport.UnalignedDigest {
	out := make([]transport.UnalignedDigest, len(r.Digests))
	for router, d := range r.Digests {
		out[router] = transport.UnalignedDigest{Epoch: epoch, Digest: d}
	}
	return out
}

// RunUnaligned executes the scenario.
func RunUnaligned(sc UnalignedScenario) (*UnalignedResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRand(sc.Seed)
	var content trafficgen.Content
	if sc.ContentPackets > 0 {
		content = trafficgen.NewContent(rng, sc.ContentPackets, sc.Collector.SegmentSize)
	}
	prefix := make([]byte, sc.Collector.SegmentSize)
	rng.Read(prefix)
	carrier := make(map[int]bool, len(sc.Carriers))
	for _, c := range sc.Carriers {
		carrier[c] = true
	}

	res := &UnalignedResult{Digests: make([]*unaligned.Digest, sc.Routers)}
	for r := 0; r < sc.Routers; r++ {
		cfg := sc.Collector
		cfg.OffsetSeed = sc.Seed ^ (uint64(r+1) * 0x9e3779b97f4a7c15)
		col, err := unaligned.NewCollector(cfg)
		if err != nil {
			return nil, err
		}
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: sc.BackgroundPackets, SegmentSize: cfg.SegmentSize,
			Flows: sc.BackgroundFlows, ZipfS: sc.ZipfS,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range bg {
			col.Update(p)
		}
		if carrier[r] && sc.ContentPackets > 0 {
			flow := packet.FlowLabel(1<<50 | uint64(r))
			l := rng.Intn(cfg.SegmentSize)
			for _, p := range packet.Instance(flow, content.Data, prefix, l, cfg.SegmentSize) {
				col.Update(p)
			}
			res.CarrierVertices = append(res.CarrierVertices, unaligned.Vertex{
				RouterID: r,
				Group:    col.GroupOf(flow),
			})
			res.PrefixLens = append(res.PrefixLens, l)
		}
		res.Digests[r] = col.Digest(r)
	}
	return res, nil
}
