package unaligned

import (
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
)

func testCfg() CollectorConfig {
	return CollectorConfig{
		Groups: 4, ArraysPerGroup: 10, ArrayBits: 512,
		SegmentSize: 100, FragmentLen: 8, MinPayload: 40,
		HashSeed: 77,
	}
}

func TestCollectorConfigValidation(t *testing.T) {
	for _, mutate := range []func(*CollectorConfig){
		func(c *CollectorConfig) { c.Groups = 0 },
		func(c *CollectorConfig) { c.ArraysPerGroup = -1 },
		func(c *CollectorConfig) { c.ArrayBits = 0 },
		func(c *CollectorConfig) { c.SegmentSize = 0 },
		func(c *CollectorConfig) { c.FragmentLen = 200 },
		func(c *CollectorConfig) { c.MinPayload = -1 },
	} {
		cfg := testCfg()
		mutate(&cfg)
		if _, err := NewCollector(cfg); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
}

func TestCollectorOffsetsInRange(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		cfg := testCfg()
		cfg.OffsetSeed = seed
		c, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Offsets()) != cfg.ArraysPerGroup {
			t.Fatalf("%d offsets want %d", len(c.Offsets()), cfg.ArraysPerGroup)
		}
		for _, o := range c.Offsets() {
			if o < 0 || o > cfg.SegmentSize-cfg.FragmentLen {
				t.Fatalf("offset %d outside [0,%d]", o, cfg.SegmentSize-cfg.FragmentLen)
			}
		}
	}
}

func TestCollectorSkipsSmallPayloads(t *testing.T) {
	c, _ := NewCollector(testCfg())
	c.Update(packet.Packet{Flow: 1, Payload: make([]byte, 39)})
	if c.Packets() != 0 || c.Skipped() != 1 {
		t.Fatalf("packets=%d skipped=%d", c.Packets(), c.Skipped())
	}
	c.Update(packet.Packet{Flow: 1, Payload: make([]byte, 40)})
	if c.Packets() != 1 {
		t.Fatal("packet at MinPayload boundary dropped")
	}
}

func TestCollectorFlowSplitting(t *testing.T) {
	// All packets of one flow must land in exactly one group; packets of
	// many flows must spread across groups.
	cfg := testCfg()
	c, _ := NewCollector(cfg)
	rng := stats.NewRand(3)
	payload := make([]byte, 100)
	for i := 0; i < 50; i++ {
		rng.Read(payload)
		c.Update(packet.Packet{Flow: 42, Payload: append([]byte(nil), payload...)})
	}
	d := c.Digest(0)
	nonEmpty := 0
	for g := range d.Rows {
		ones := 0
		for _, r := range d.Rows[g] {
			ones += r.OnesCount()
		}
		if ones > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("one flow touched %d groups, want 1", nonEmpty)
	}

	c.Reset()
	for i := 0; i < 400; i++ {
		rng.Read(payload)
		c.Update(packet.Packet{Flow: packet.FlowLabel(i), Payload: append([]byte(nil), payload...)})
	}
	d = c.Digest(0)
	nonEmpty = 0
	for g := range d.Rows {
		if d.Rows[g][0].OnesCount() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != cfg.Groups {
		t.Fatalf("%d/%d groups active under many flows", nonEmpty, cfg.Groups)
	}
}

func TestCollectorDigestAndReset(t *testing.T) {
	c, _ := NewCollector(testCfg())
	c.Update(packet.Packet{Flow: 1, Payload: make([]byte, 100)})
	d := c.Digest(7)
	if d.RouterID != 7 {
		t.Fatal("router id lost")
	}
	// Digest is a snapshot: mutating the collector must not change it.
	before := 0
	for _, g := range d.Rows {
		for _, r := range g {
			before += r.OnesCount()
		}
	}
	c.Reset()
	after := 0
	for _, g := range d.Rows {
		for _, r := range g {
			after += r.OnesCount()
		}
	}
	if before == 0 || before != after {
		t.Fatalf("digest not independent: before=%d after=%d", before, after)
	}
	if c.FillRatio() != 0 || c.Packets() != 0 {
		t.Fatal("Reset incomplete")
	}
}

// TestCollectorOffsetCongruence is the §IV-A mechanism end-to-end: two
// routers see the same content with different prefix lengths. An array pair
// (i at router 1, j at router 2) shares ≈g common ones exactly when
// o1[i] - l1 ≡ o2[j] - l2 within the valid offset span.
func TestCollectorOffsetCongruence(t *testing.T) {
	cfg := testCfg()
	cfg.Groups = 1 // force everything into one group for direct comparison
	rng := stats.NewRand(9)
	content := trafficgen.NewContent(rng, 60, cfg.SegmentSize)

	c1cfg, c2cfg := cfg, cfg
	c1cfg.OffsetSeed, c2cfg.OffsetSeed = 1001, 2002
	c1, _ := NewCollector(c1cfg)
	c2, _ := NewCollector(c2cfg)

	const l1, l2 = 13, 57
	prefix := make([]byte, cfg.SegmentSize)
	rng.Read(prefix)
	for _, p := range packet.Instance(5, content.Data, prefix, l1, cfg.SegmentSize) {
		c1.Update(p)
	}
	for _, p := range packet.Instance(6, content.Data, prefix, l2, cfg.SegmentSize) {
		c2.Update(p)
	}
	d1, d2 := c1.Digest(1), c2.Digest(2)

	mod := func(x int) int { return ((x % cfg.SegmentSize) + cfg.SegmentSize) % cfg.SegmentSize }
	for i, o1 := range c1.Offsets() {
		for j, o2 := range c2.Offsets() {
			// Congruence: both fragments read the same content-relative
			// bytes when (o1 - l1) ≡ (o2 - l2) mod segment size.
			congruent := mod(o1-l1-o2+l2) == 0
			overlap := bitvec.AndCount(d1.Rows[0][i], d2.Rows[0][j])
			// Incongruent arrays still share ≈ 60·60/512 ≈ 7 ones by chance;
			// 25 cleanly separates chance from the ≈60-one matched overlap.
			if congruent && overlap < 50 {
				t.Errorf("arrays (%d,%d) congruent (o1=%d,o2=%d) but overlap only %d", i, j, o1, o2, overlap)
			}
			if !congruent && overlap > 25 {
				t.Errorf("arrays (%d,%d) incongruent (o1=%d,o2=%d) but overlap %d", i, j, o1, o2, overlap)
			}
		}
	}
}

// TestCollectorMatchProbability measures the k² amplification across many
// router pairs against the 1-exp(-k²/span) prediction.
func TestCollectorMatchProbability(t *testing.T) {
	cfg := testCfg()
	cfg.Groups = 1
	rng := stats.NewRand(10)
	content := trafficgen.NewContent(rng, 60, cfg.SegmentSize)
	prefix := make([]byte, cfg.SegmentSize)
	rng.Read(prefix)

	const pairs = 120
	matches := 0
	for trial := 0; trial < pairs; trial++ {
		aCfg, bCfg := cfg, cfg
		aCfg.OffsetSeed = uint64(3000 + 2*trial)
		bCfg.OffsetSeed = uint64(3001 + 2*trial)
		a, _ := NewCollector(aCfg)
		b, _ := NewCollector(bCfg)
		la, lb := rng.Intn(cfg.SegmentSize), rng.Intn(cfg.SegmentSize)
		for _, p := range packet.Instance(1, content.Data, prefix, la, cfg.SegmentSize) {
			a.Update(p)
		}
		for _, p := range packet.Instance(2, content.Data, prefix, lb, cfg.SegmentSize) {
			b.Update(p)
		}
		da, db := a.Digest(0), b.Digest(1)
		best := 0
		for _, ra := range da.Rows[0] {
			for _, rb := range db.Rows[0] {
				if c := bitvec.AndCount(ra, rb); c > best {
					best = c
				}
			}
		}
		if best >= 40 { // a real match shares ≈60 ones; noise shares ≈0 here
			matches++
		}
	}
	// Model prediction with k=10 over a ~93-wide effective span: ≈0.63-0.66.
	rate := float64(matches) / pairs
	if rate < 0.45 || rate > 0.85 {
		t.Fatalf("match rate %v, predicted ≈0.65", rate)
	}
}

func TestLargePayloadDualOffsets(t *testing.T) {
	cfg := CollectorConfig{
		Groups: 1, ArraysPerGroup: 5, ArrayBits: 4096,
		SegmentSize: 100, FragmentLen: 8, MinPayload: 40,
		LargePayload: 200, HashSeed: 3, OffsetSeed: 5,
	}
	c, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(6)
	small := make([]byte, 100)
	large := make([]byte, 250)
	rng.Read(small)
	rng.Read(large)

	c.Update(packet.Packet{Flow: 1, Payload: small})
	smallOnes := 0
	for _, r := range c.Digest(0).Rows[0] {
		smallOnes += r.OnesCount()
	}
	c.Reset()
	c.Update(packet.Packet{Flow: 1, Payload: large})
	largeOnes := 0
	for _, r := range c.Digest(0).Rows[0] {
		largeOnes += r.OnesCount()
	}
	// A small packet sets ≤1 bit per array; a large one up to 2 per array.
	if smallOnes > cfg.ArraysPerGroup {
		t.Fatalf("small packet set %d bits across %d arrays", smallOnes, cfg.ArraysPerGroup)
	}
	if largeOnes <= smallOnes || largeOnes > 2*cfg.ArraysPerGroup {
		t.Fatalf("large packet set %d bits (small set %d)", largeOnes, smallOnes)
	}
}

func TestLargePayloadValidation(t *testing.T) {
	cfg := testCfg()
	cfg.LargePayload = -1
	if _, err := NewCollector(cfg); err == nil {
		t.Fatal("negative LargePayload accepted")
	}
}
