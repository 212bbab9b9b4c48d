// Package unaligned implements the paper's design for the unaligned case
// (§IV): the offset-sampling + flow-splitting online streaming module, the
// hypergeometric λ-threshold table that turns pairwise array correlations
// into a uniform-probability random graph, the Erdős–Rényi phase-transition
// statistical test, the three-step greedy core-finding detector, and the
// non-naturally-occurring / detectable threshold machinery of §IV-C
// (Tables I–III, Figure 13).
package unaligned

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"dcstream/internal/bitvec"
	"dcstream/internal/hashing"
	"dcstream/internal/packet"
)

// CollectorConfig parameterizes one router's unaligned streaming module.
// The paper's reference deployment: 128 groups × 10 arrays of 1,024 bits,
// segment size 536, packets under 500 bytes skipped.
type CollectorConfig struct {
	// Groups is the number of flow-split groups; a flow's packets all land
	// in one group so multiple instances of the same content register in
	// separate small arrays, magnifying signal strength (§IV-A).
	Groups int
	// ArraysPerGroup is k, the number of offset-sampled arrays per group.
	ArraysPerGroup int
	// ArrayBits is the width of each array (1,024 in the paper).
	ArrayBits int
	// SegmentSize is the assumed fixed packet payload size (536).
	SegmentSize int
	// FragmentLen is how many payload bytes each offset sample hashes.
	// Zero means 8.
	FragmentLen int
	// MinPayload skips packets with smaller payloads (the paper performs
	// no operation on packets under 500 bytes). Zero means 500.
	MinPayload int
	// LargePayload, when positive, enables the paper's large-packet rule
	// ("for packets 1000 bytes and above, use 20 different offsets, two
	// offsets per array"): packets at least this long are sampled at a
	// second offset per array, doubling the effective k for content
	// carried in large segments. Zero disables the rule.
	LargePayload int
	// HashSeed seeds the shared fragment/flow hash functions. Every router
	// in a deployment must use the same seed: cross-router matching relies
	// on identical fragments hashing to identical indices.
	HashSeed uint64
	// OffsetSeed seeds this router's offset choice. Each router picks its
	// own k random offsets, fixed for a measurement epoch (§IV-A).
	OffsetSeed uint64
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.FragmentLen == 0 {
		c.FragmentLen = 8
	}
	if c.MinPayload == 0 {
		c.MinPayload = 500
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c CollectorConfig) Validate() error {
	c = c.withDefaults()
	if c.Groups <= 0 || c.ArraysPerGroup <= 0 || c.ArrayBits <= 0 {
		return fmt.Errorf("unaligned: non-positive dimension in %+v", c)
	}
	if c.SegmentSize <= 0 {
		return fmt.Errorf("unaligned: segment size must be positive, got %d", c.SegmentSize)
	}
	if c.FragmentLen < 1 || c.FragmentLen > c.SegmentSize {
		return fmt.Errorf("unaligned: fragment length %d outside [1,%d]", c.FragmentLen, c.SegmentSize)
	}
	if c.MinPayload < 0 {
		return fmt.Errorf("unaligned: negative MinPayload")
	}
	if c.LargePayload < 0 {
		return fmt.Errorf("unaligned: negative LargePayload")
	}
	return nil
}

// Digest is one router's per-epoch output: Groups × ArraysPerGroup arrays of
// ArrayBits bits. Rows are indexed [group][array].
type Digest struct {
	RouterID int
	Rows     [][]*bitvec.Vector
}

// Collector is the unaligned-case data collection module (Figures 8 and 9).
// Not safe for concurrent use.
type Collector struct {
	cfg          CollectorConfig
	offsets      []int // one sampling offset per array
	largeOffsets []int // second offset per array for large packets (may be nil)
	flowHash     hashing.Hash64
	fragHash     hashing.Hash64
	rows         [][]*bitvec.Vector
	packets      int
	skipped      int
}

// NewCollector returns a collector with k offsets drawn uniformly from
// [0, SegmentSize-FragmentLen] using OffsetSeed. The fragment hash is shared
// across arrays and routers (seeded by HashSeed): a match between array i of
// one router and array j of another must produce identical bit indices.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(int64(cfg.OffsetSeed) ^ 0x5bd1e995))
	offsets := make([]int, cfg.ArraysPerGroup)
	span := cfg.SegmentSize - cfg.FragmentLen + 1
	for i := range offsets {
		offsets[i] = rng.Intn(span)
	}
	var largeOffsets []int
	if cfg.LargePayload > 0 {
		largeOffsets = make([]int, cfg.ArraysPerGroup)
		for i := range largeOffsets {
			largeOffsets[i] = rng.Intn(span)
		}
	}
	c := &Collector{
		cfg:          cfg,
		offsets:      offsets,
		largeOffsets: largeOffsets,
		flowHash:     hashing.New(cfg.HashSeed ^ 0xf10f10f1),
		fragHash:     hashing.New(cfg.HashSeed),
	}
	c.rows = make([][]*bitvec.Vector, cfg.Groups)
	for g := range c.rows {
		c.rows[g] = make([]*bitvec.Vector, cfg.ArraysPerGroup)
		for a := range c.rows[g] {
			c.rows[g][a] = bitvec.New(cfg.ArrayBits)
		}
	}
	return c, nil
}

// Offsets returns this router's sampling offsets (read-only).
func (c *Collector) Offsets() []int { return c.offsets }

// GroupOf returns the flow-split group a flow label maps to. All collectors
// sharing a HashSeed agree on this mapping.
func (c *Collector) GroupOf(flow packet.FlowLabel) int {
	return c.flowHash.IndexUint64(uint64(flow), c.cfg.Groups)
}

// Update processes one packet: flow-split to a group, then sample a fragment
// at each offset and set the hashed bit in the corresponding array.
func (c *Collector) Update(p packet.Packet) {
	if len(p.Payload) < c.cfg.MinPayload {
		c.skipped++
		return
	}
	group := c.rows[c.GroupOf(p.Flow)]
	c.sample(group, c.offsets, p.Payload)
	if c.largeOffsets != nil && len(p.Payload) >= c.cfg.LargePayload {
		c.sample(group, c.largeOffsets, p.Payload)
	}
	c.packets++
}

// sample sets, in each array of the group, the bit its offset's fragment
// hashes to. The default 8-byte fragment is one load hashed as a word, which
// SumUint64 defines to be the hash of those eight bytes; TestAndSet is used
// for its inlined store, where Set is a call.
func (c *Collector) sample(group []*bitvec.Vector, offsets []int, payload []byte) {
	for a, off := range offsets {
		end := off + c.cfg.FragmentLen
		if end > len(payload) {
			continue // short final packet: this offset has no full fragment
		}
		if c.cfg.FragmentLen == 8 {
			group[a].TestAndSet(c.fragHash.IndexUint64(binary.LittleEndian.Uint64(payload[off:]), c.cfg.ArrayBits))
		} else {
			group[a].TestAndSet(c.fragHash.Index(payload[off:end], c.cfg.ArrayBits))
		}
	}
}

// Packets returns the number of packets sampled (post MinPayload filter).
func (c *Collector) Packets() int { return c.packets }

// Skipped returns the number of packets dropped by the MinPayload filter.
func (c *Collector) Skipped() int { return c.skipped }

// FillRatio returns the mean fraction of set bits across all arrays.
func (c *Collector) FillRatio() float64 {
	ones := 0
	for _, g := range c.rows {
		for _, a := range g {
			ones += a.OnesCount()
		}
	}
	return float64(ones) / float64(c.cfg.Groups*c.cfg.ArraysPerGroup*c.cfg.ArrayBits)
}

// Digest snapshots the arrays into a shippable digest without resetting.
func (c *Collector) Digest(routerID int) *Digest {
	d := &Digest{RouterID: routerID, Rows: make([][]*bitvec.Vector, len(c.rows))}
	for g := range c.rows {
		d.Rows[g] = make([]*bitvec.Vector, len(c.rows[g]))
		for a := range c.rows[g] {
			d.Rows[g][a] = c.rows[g][a].Clone()
		}
	}
	return d
}

// Reset clears every array for the next epoch.
func (c *Collector) Reset() {
	for _, g := range c.rows {
		for _, a := range g {
			a.Reset()
		}
	}
	c.packets = 0
	c.skipped = 0
}
