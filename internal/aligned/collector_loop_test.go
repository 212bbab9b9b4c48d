package aligned

import (
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/hashing"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
)

// lineRateTraffic is the benchmark's router-half traffic at a small size:
// full 536-byte segments from a Zipfian flow population.
func lineRateTraffic(tb testing.TB, packets int) []packet.Packet {
	tb.Helper()
	bg, err := trafficgen.Background(stats.NewRand(1), trafficgen.BackgroundConfig{
		Packets: packets, SegmentSize: 536, Flows: 4096, ZipfS: 1.2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return bg
}

// TestCollectorColumnIsTheHashIndex holds Column, and through it Update, to the
// deployment-wide mapping: the shared hash of the payload (or of its prefix)
// reduced to the bitmap width.
func TestCollectorColumnIsTheHashIndex(t *testing.T) {
	h := hashing.New(5)
	for _, prefix := range []int{0, 16, 600} {
		c, _ := NewCollector(CollectorConfig{Bits: 1 << 12, HashSeed: 5, PrefixLen: prefix})
		want := bitvec.New(1 << 12)
		for _, p := range lineRateTraffic(t, 200) {
			data := p.Payload
			if prefix > 0 && prefix < len(data) {
				data = data[:prefix]
			}
			idx := h.Index(data, 1<<12)
			if got := c.Column(p.Payload); got != idx {
				t.Fatalf("prefix %d: Column = %d, hash index %d", prefix, got, idx)
			}
			want.Set(idx)
			c.Update(p)
		}
		if !bitvec.Equal(c.Digest(), want) {
			t.Fatalf("prefix %d: Update set other bits than Column names", prefix)
		}
	}
}

// TestCollectorOnesTracksDigest: the running count behind FillRatio and
// EpochDone must equal the digest's weight however often payloads repeat.
func TestCollectorOnesTracksDigest(t *testing.T) {
	const bits = 1 << 16
	c, _ := NewCollector(CollectorConfig{Bits: bits, HashSeed: 9})
	pkts := lineRateTraffic(t, 20000)
	rng := stats.NewRand(2)
	for i := 0; i < 100000; i++ {
		c.Update(pkts[rng.Intn(len(pkts))])
	}
	if c.Packets() != 100000 {
		t.Fatalf("packets = %d", c.Packets())
	}
	if got, want := c.FillRatio(), float64(c.Digest().OnesCount())/bits; got != want || got == 0 {
		t.Fatalf("FillRatio %v, digest weight/Bits %v", got, want)
	}
}

// TestCollectorDigestIsASnapshot: Update and Reset after Digest leave the
// returned digest bit for bit as it was.
func TestCollectorDigestIsASnapshot(t *testing.T) {
	c, _ := NewCollector(CollectorConfig{Bits: 1 << 10, HashSeed: 1})
	pkts := lineRateTraffic(t, 300)
	for _, p := range pkts[:100] {
		c.Update(p)
	}
	d := c.Digest()
	kept := d.Clone()
	for _, p := range pkts[100:] {
		c.Update(p)
	}
	if !bitvec.Equal(d, kept) {
		t.Fatal("Update after Digest changed the returned digest")
	}
	c.Reset()
	if !bitvec.Equal(d, kept) || d.OnesCount() == 0 {
		t.Fatal("Reset after Digest changed the returned digest")
	}
}

func TestCollectorUpdateDoesNotAllocate(t *testing.T) {
	c, _ := NewCollector(CollectorConfig{Bits: 1 << 22, HashSeed: 1})
	pkts := lineRateTraffic(t, 64)
	if a := testing.AllocsPerRun(10, func() {
		for _, p := range pkts {
			c.Update(p)
		}
	}); a != 0 {
		t.Fatalf("Update allocates: %.0f allocations per %d packets", a, len(pkts))
	}
}

func BenchmarkAlignedUpdate(b *testing.B) {
	c, _ := NewCollector(CollectorConfig{Bits: 1 << 22, HashSeed: 1})
	pkts := lineRateTraffic(b, 20000)
	b.SetBytes(536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(pkts[i%len(pkts)])
	}
}
