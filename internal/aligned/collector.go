// Package aligned implements the paper's design for the aligned case
// (§III): the hashed-bitmap online streaming module that each router runs,
// the All-1 Submatrix IDentification (ASID) greedy detectors — the naive
// O(n² log n) variant and the refined O(n log n) variant with the
// weight-screening "core" search and the weight-loss termination procedure —
// and the non-naturally-occurring / detectable threshold computations of
// §III-C and §V-A.
package aligned

import (
	"fmt"

	"dcstream/internal/bitvec"
	"dcstream/internal/hashing"
	"dcstream/internal/packet"
)

// CollectorConfig parameterizes one router's online streaming module.
type CollectorConfig struct {
	// Bits is the bitmap width n. The paper sizes it so that one epoch of
	// line-rate traffic fills about half the bits: 4M bits for OC-48.
	Bits int
	// HashSeed selects the hash function. All routers in one deployment
	// must share a seed, or identical payloads would map to different
	// indices and no cross-router pattern could form.
	HashSeed uint64
	// PrefixLen, when positive, hashes only the first PrefixLen bytes of
	// each payload (the paper's range(pkt.content, 0, len)); zero hashes
	// the whole payload.
	PrefixLen int
	// TargetFill ends an epoch once this fraction of bits is set; the
	// paper uses one half. Zero means 0.5.
	TargetFill float64
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.TargetFill == 0 {
		c.TargetFill = 0.5
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c CollectorConfig) Validate() error {
	if c.Bits <= 0 {
		return fmt.Errorf("aligned: bitmap width must be positive, got %d", c.Bits)
	}
	if c.PrefixLen < 0 {
		return fmt.Errorf("aligned: negative prefix length %d", c.PrefixLen)
	}
	if c.TargetFill < 0 || c.TargetFill > 1 {
		return fmt.Errorf("aligned: target fill %v outside [0,1]", c.TargetFill)
	}
	return nil
}

// Collector is the aligned-case data collection module (Figure 3): an n-bit
// array indexed by a uniform hash of the packet payload. It is not safe for
// concurrent use; each monitored link owns one collector.
type Collector struct {
	cfg     CollectorConfig
	hash    hashing.Hash64
	bitmap  *bitvec.Vector
	packets int
	ones    int
}

// NewCollector returns a collector for one link.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Collector{
		cfg:    cfg,
		hash:   hashing.New(cfg.HashSeed),
		bitmap: bitvec.New(cfg.Bits),
	}, nil
}

// Update processes one packet (Figure 3's update algorithm): hash the
// payload (or its prefix) and set the indexed bit. Packets without payload
// are ignored, as the paper specifies.
func (c *Collector) Update(p packet.Packet) {
	if len(p.Payload) == 0 {
		return
	}
	if !c.bitmap.TestAndSet(c.Column(p.Payload)) {
		c.ones++
	}
	c.packets++
}

// Column returns the bitmap index a payload maps to: the shared hash of the
// payload, or of its first PrefixLen bytes, reduced to the bitmap width. Update
// and every ground truth for a planted content take the mapping from here.
func (c *Collector) Column(payload []byte) int {
	if c.cfg.PrefixLen > 0 && c.cfg.PrefixLen < len(payload) {
		payload = payload[:c.cfg.PrefixLen]
	}
	return c.hash.Index(payload, c.cfg.Bits)
}

// Packets returns the number of payload-bearing packets processed this epoch.
func (c *Collector) Packets() int { return c.packets }

// FillRatio returns the fraction of bits currently set.
func (c *Collector) FillRatio() float64 {
	return float64(c.ones) / float64(c.cfg.Bits)
}

// EpochDone reports whether the bitmap has reached the target fill and
// should be shipped to the analysis center.
func (c *Collector) EpochDone() bool {
	return c.FillRatio() >= c.cfg.TargetFill
}

// Digest returns a snapshot of the bitmap — the per-epoch digest that gets
// shipped to the center — and does not reset the collector.
func (c *Collector) Digest() *bitvec.Vector { return c.bitmap.Clone() }

// Reset clears the bitmap for the next measurement epoch.
func (c *Collector) Reset() {
	c.bitmap.Reset()
	c.packets = 0
	c.ones = 0
}
