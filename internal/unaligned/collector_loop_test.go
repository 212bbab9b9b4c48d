package unaligned

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

func lineRateCfg() CollectorConfig {
	return CollectorConfig{Groups: 8, ArraysPerGroup: 10, ArrayBits: 1024, SegmentSize: 536, HashSeed: 1}
}

func sameRows(a, b [][]*bitvec.Vector) bool {
	for g := range a {
		for i := range a[g] {
			if !bitvec.Equal(a[g][i], b[g][i]) {
				return false
			}
		}
	}
	return len(a) == len(b)
}

// TestCollectorSetsTheOracleBits holds Update, at every fragment length, to
// the bits the definition names: array a of the packet's group gets bit
// hashing.New(seed).Index(payload[off:off+FragmentLen], ArrayBits) for its
// offset and, on a large packet, for its second offset; an offset whose
// fragment would run past a short final packet sets nothing. FragmentLen 8
// takes the one-load path, 4 and 12 the general one.
func TestCollectorSetsTheOracleBits(t *testing.T) {
	for _, fragLen := range []int{4, 8, 12} {
		cfg := CollectorConfig{
			Groups: 4, ArraysPerGroup: 10, ArrayBits: 512, SegmentSize: 100,
			FragmentLen: fragLen, MinPayload: 40, LargePayload: 90, HashSeed: 77, OffsetSeed: 5,
		}
		c, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]*bitvec.Vector, cfg.Groups)
		for g := range want {
			want[g] = bitvec.NewArena(cfg.ArraysPerGroup, cfg.ArrayBits)
		}
		frag := hashing.New(cfg.HashSeed)
		rng := stats.NewRand(uint64(fragLen))
		skipped, second := 0, 0
		for i := 0; i < 400; i++ {
			// Lengths from MinPayload to SegmentSize: most packets are cut
			// short of some offsets, some are large enough for the second set.
			p := packet.Packet{Flow: packet.FlowLabel(rng.Intn(50)), Payload: make([]byte, 40+rng.Intn(61))}
			rng.Read(p.Payload)
			c.Update(p)
			row := want[c.GroupOf(p.Flow)]
			mark := func(offsets []int) {
				for a, off := range offsets {
					if off+fragLen > len(p.Payload) {
						skipped++
						continue
					}
					row[a].Set(frag.Index(p.Payload[off:off+fragLen], cfg.ArrayBits))
				}
			}
			mark(c.offsets)
			if len(p.Payload) >= cfg.LargePayload {
				second++
				mark(c.largeOffsets)
			}
		}
		if skipped == 0 || second == 0 {
			t.Fatalf("fragment %d: vacuous: %d skipped offsets, %d large packets", fragLen, skipped, second)
		}
		if !sameRows(c.Digest(0).Rows, want) {
			t.Fatalf("fragment %d: digest differs from the bits the fragment hash names", fragLen)
		}
	}
}

// TestCollectorDigestIsASnapshot: Update and Reset after Digest leave the
// returned digest bit for bit as it was.
func TestCollectorDigestIsASnapshot(t *testing.T) {
	c, _ := NewCollector(lineRateCfg())
	pkts := lineRateTraffic(t, 300)
	for _, p := range pkts[:100] {
		c.Update(p)
	}
	d, kept := c.Digest(3), c.Digest(3)
	for _, p := range pkts[100:] {
		c.Update(p)
	}
	if !sameRows(d.Rows, kept.Rows) {
		t.Fatal("Update after Digest changed the returned digest")
	}
	if sameRows(d.Rows, c.Digest(3).Rows) {
		t.Fatal("vacuous: 200 more packets set no new bit")
	}
	c.Reset()
	if !sameRows(d.Rows, kept.Rows) || d.Rows[0][0].OnesCount() == 0 {
		t.Fatal("Reset after Digest changed the returned digest")
	}
}

func TestCollectorUpdateDoesNotAllocate(t *testing.T) {
	cfg := lineRateCfg()
	cfg.LargePayload = 500
	c, _ := NewCollector(cfg)
	pkts := lineRateTraffic(t, 64)
	if a := testing.AllocsPerRun(10, func() {
		for _, p := range pkts {
			c.Update(p)
		}
	}); a != 0 {
		t.Fatalf("Update allocates: %.0f allocations per %d packets", a, len(pkts))
	}
}

func BenchmarkUnalignedUpdate(b *testing.B) {
	c, _ := NewCollector(lineRateCfg())
	pkts := lineRateTraffic(b, 20000)
	b.SetBytes(536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(pkts[i%len(pkts)])
	}
}
