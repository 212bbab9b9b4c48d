package aligned

import (
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
)

func TestCollectorConfigValidation(t *testing.T) {
	for _, cfg := range []CollectorConfig{
		{Bits: 0},
		{Bits: -4},
		{Bits: 10, PrefixLen: -1},
	} {
		if _, err := NewCollector(cfg); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
}

func TestCollectorSamePayloadSameBit(t *testing.T) {
	c1, err := NewCollector(CollectorConfig{Bits: 1 << 12, HashSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := NewCollector(CollectorConfig{Bits: 1 << 12, HashSeed: 9})
	payload := []byte("the same application layer data")
	c1.Update(packet.Packet{Flow: 1, Payload: payload})
	c2.Update(packet.Packet{Flow: 2, Payload: payload})
	d1, d2 := c1.Digest(), c2.Digest()
	if d1.OnesCount() != 1 || d2.OnesCount() != 1 {
		t.Fatalf("weights %d, %d want 1,1", d1.OnesCount(), d2.OnesCount())
	}
	if d1.Indices()[0] != d2.Indices()[0] {
		t.Fatal("identical payloads set different bits across routers")
	}
}

func TestCollectorDifferentSeedDifferentBit(t *testing.T) {
	c1, _ := NewCollector(CollectorConfig{Bits: 1 << 20, HashSeed: 1})
	c2, _ := NewCollector(CollectorConfig{Bits: 1 << 20, HashSeed: 2})
	payload := []byte("payload")
	c1.Update(packet.Packet{Payload: payload})
	c2.Update(packet.Packet{Payload: payload})
	if c1.Digest().Indices()[0] == c2.Digest().Indices()[0] {
		t.Fatal("different seeds mapped payload to the same bit (1/2^20 chance)")
	}
}

func TestCollectorIgnoresEmptyPayloads(t *testing.T) {
	c, _ := NewCollector(CollectorConfig{Bits: 64})
	c.Update(packet.Packet{Flow: 3})
	if c.Packets() != 0 || c.Digest().OnesCount() != 0 {
		t.Fatal("payload-less packet was recorded")
	}
}

func TestCollectorPrefixLen(t *testing.T) {
	full, _ := NewCollector(CollectorConfig{Bits: 1 << 16, HashSeed: 5})
	pre, _ := NewCollector(CollectorConfig{Bits: 1 << 16, HashSeed: 5, PrefixLen: 8})
	a := []byte("aaaaaaaaXXXX")
	b := []byte("aaaaaaaaYYYY")
	pre.Update(packet.Packet{Payload: a})
	pre.Update(packet.Packet{Payload: b})
	if pre.Digest().OnesCount() != 1 {
		t.Fatal("prefix hashing should collapse payloads sharing a prefix")
	}
	full.Update(packet.Packet{Payload: a})
	full.Update(packet.Packet{Payload: b})
	if full.Digest().OnesCount() != 2 {
		t.Fatal("full hashing should distinguish differing payloads")
	}
	// Prefix longer than payload hashes the whole payload.
	short, _ := NewCollector(CollectorConfig{Bits: 1 << 16, HashSeed: 5, PrefixLen: 100})
	short.Update(packet.Packet{Payload: []byte("tiny")})
	if short.Packets() != 1 {
		t.Fatal("short payload dropped")
	}
}

func TestCollectorFillMatchesBloomExpectation(t *testing.T) {
	// Inserting k random payloads into an l-bit array leaves a fraction
	// ≈ 1-exp(-k/l) of bits set — the Bloom filter property the paper sizes
	// bitmaps with (§III-A).
	const bits = 1 << 14
	const pkts = 11357 // ln2 * bits ≈ half fill
	c, _ := NewCollector(CollectorConfig{Bits: bits, HashSeed: 3})
	rng := stats.NewRand(21)
	bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{Packets: pkts, SegmentSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range bg {
		c.Update(p)
	}
	if got := c.FillRatio(); got < 0.47 || got > 0.53 {
		t.Fatalf("fill ratio %v, want ≈0.5", got)
	}
}

func TestCollectorReset(t *testing.T) {
	c, _ := NewCollector(CollectorConfig{Bits: 128})
	c.Update(packet.Packet{Payload: []byte("x")})
	c.Reset()
	if c.Packets() != 0 || c.FillRatio() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestFromDigestsTranspose(t *testing.T) {
	d0 := bitvec.FromIndices(8, []int{1, 3})
	d1 := bitvec.FromIndices(8, []int{3, 7})
	m := FromDigests([]*bitvec.Vector{d0, d1})
	if m.Rows() != 2 || m.Cols() != 8 {
		t.Fatalf("shape %dx%d want 2x8", m.Rows(), m.Cols())
	}
	want := map[[2]int]bool{{0, 1}: true, {0, 3}: true, {1, 3}: true, {1, 7}: true}
	for i := 0; i < 2; i++ {
		for j := 0; j < 8; j++ {
			if m.Test(i, j) != want[[2]int{i, j}] {
				t.Fatalf("entry (%d,%d)=%v", i, j, m.Test(i, j))
			}
		}
	}
	// Column 3 (the shared payload position) must have weight 2.
	if m.Col(3).OnesCount() != 2 {
		t.Fatal("shared column weight wrong")
	}
}

func TestFromDigestsEndToEnd(t *testing.T) {
	// Two collectors see one shared payload; the resulting matrix must have
	// exactly one weight-2 column.
	c0, _ := NewCollector(CollectorConfig{Bits: 256, HashSeed: 1})
	c1, _ := NewCollector(CollectorConfig{Bits: 256, HashSeed: 1})
	shared := []byte("common content packet")
	c0.Update(packet.Packet{Payload: shared})
	c1.Update(packet.Packet{Payload: shared})
	c1.Update(packet.Packet{Payload: []byte("only at router 1")})

	m := FromDigests([]*bitvec.Vector{c0.Digest(), c1.Digest()})
	heavy := 0
	for j := 0; j < m.Cols(); j++ {
		if m.Col(j).OnesCount() == 2 {
			heavy++
		}
	}
	if heavy != 1 {
		t.Fatalf("want exactly 1 shared column, got %d", heavy)
	}
}

func TestMatrixPlantPattern(t *testing.T) {
	rng := stats.NewRand(33)
	m := NewMatrix(50, 200)
	rows, cols := m.PlantPattern(rng, 10, 7)
	if len(rows) != 10 || len(cols) != 7 {
		t.Fatalf("pattern dims %dx%d", len(rows), len(cols))
	}
	for _, j := range cols {
		for _, i := range rows {
			if !m.Test(i, j) {
				t.Fatalf("pattern bit (%d,%d) not set", i, j)
			}
		}
		if m.Col(j).OnesCount() != 10 {
			t.Fatal("pattern column has stray bits in a zero matrix")
		}
	}
}

func TestRandomMatrixHalfFull(t *testing.T) {
	rng := stats.NewRand(34)
	m := RandomMatrix(rng, 100, 500)
	total := 0
	for _, w := range m.ColumnWeights() {
		total += w
	}
	fill := float64(total) / float64(100*500)
	if fill < 0.48 || fill > 0.52 {
		t.Fatalf("random matrix fill %v, want ≈0.5", fill)
	}
}
