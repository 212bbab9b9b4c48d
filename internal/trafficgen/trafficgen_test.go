package trafficgen

import (
	"bytes"
	"testing"

	"dcstream/internal/packet"
)

func TestBackgroundBasics(t *testing.T) {
	rng := NewRand(1)
	pkts, err := Background(rng, BackgroundConfig{Packets: 500, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 500 {
		t.Fatalf("got %d packets want 500", len(pkts))
	}
	flows := map[packet.FlowLabel]bool{}
	for i, p := range pkts {
		if len(p.Payload) != 64 {
			t.Fatalf("packet %d payload %d bytes", i, len(p.Payload))
		}
		flows[p.Flow] = true
	}
	if len(flows) != 500 {
		t.Fatalf("even-split mode: want unique flows, got %d/500", len(flows))
	}
}

func TestBackgroundPayloadsDistinct(t *testing.T) {
	rng := NewRand(2)
	pkts, err := Background(rng, BackgroundConfig{Packets: 1000, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pkts {
		s := string(p.Payload)
		if seen[s] {
			t.Fatal("duplicate random payload (vanishingly unlikely)")
		}
		seen[s] = true
	}
}

func TestBackgroundZipfSkew(t *testing.T) {
	rng := NewRand(3)
	pkts, err := Background(rng, BackgroundConfig{
		Packets: 20000, SegmentSize: 16, Flows: 1000, ZipfS: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	perFlow := make(map[packet.FlowLabel]int)
	top := 0
	for _, p := range pkts {
		perFlow[p.Flow]++
		top = max(top, perFlow[p.Flow])
	}
	// With s=1.5 over 1000 flows the top flow should carry far more than the
	// 0.1% a uniform split would give — typically tens of percent.
	if share := float64(top) / float64(len(pkts)); share < 0.05 {
		t.Fatalf("top flow share %v: Zipf skew missing", share)
	}
	if n := len(perFlow); n < 20 {
		t.Fatalf("only %d distinct flows, generator collapsed", n)
	}
}

func TestBackgroundValidation(t *testing.T) {
	rng := NewRand(4)
	for _, cfg := range []BackgroundConfig{
		{Packets: -1, SegmentSize: 10},
		{Packets: 10, SegmentSize: 0},
		{Packets: 10, SegmentSize: 10, Flows: 5, ZipfS: 1.0},
	} {
		if _, err := Background(rng, cfg); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
}

func TestNewContentAndAlignedPlant(t *testing.T) {
	rng := NewRand(5)
	c := NewContent(rng, 30, 536)
	if len(c.Data) != 30*536 {
		t.Fatalf("content %d bytes", len(c.Data))
	}
	if c.Segments(536) != 30 {
		t.Fatalf("Segments=%d", c.Segments(536))
	}
	a := c.PlantAligned(1, 536)
	b := c.PlantAligned(2, 536)
	if len(a) != 30 || len(b) != 30 {
		t.Fatalf("aligned instance packet counts %d, %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatalf("aligned payloads differ at %d", i)
		}
		if a[i].Flow != 1 || b[i].Flow != 2 {
			t.Fatal("flow labels wrong")
		}
	}
}

func TestPlantUnalignedPrefixRange(t *testing.T) {
	rng := NewRand(6)
	c := NewContent(rng, 10, 100)
	seenShift := map[int]bool{}
	for i := 0; i < 200; i++ {
		pkts, prefixLen := c.PlantUnaligned(rng, 1, 100)
		if prefixLen < 0 || prefixLen >= 100 {
			t.Fatalf("prefix length %d out of [0,100)", prefixLen)
		}
		wantPkts := (prefixLen + len(c.Data) + 99) / 100
		if len(pkts) != wantPkts {
			t.Fatalf("prefix %d: %d packets want %d", prefixLen, len(pkts), wantPkts)
		}
		// The content must appear intact after the prefix.
		var joined []byte
		for _, p := range pkts {
			joined = append(joined, p.Payload...)
		}
		if !bytes.Equal(joined[prefixLen:], c.Data) {
			t.Fatal("content corrupted by prefixing")
		}
		seenShift[prefixLen] = true
	}
	if len(seenShift) < 50 {
		t.Fatalf("prefix lengths not spread: %d distinct in 200 draws", len(seenShift))
	}
}

func TestMixPreservesMultiset(t *testing.T) {
	rng := NewRand(7)
	bg, err := Background(rng, BackgroundConfig{Packets: 50, SegmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := NewContent(rng, 5, 8)
	inst := c.PlantAligned(99, 8)
	mixed := Mix(rng, bg, inst)
	if len(mixed) != 55 {
		t.Fatalf("mixed length %d want 55", len(mixed))
	}
	count := map[string]int{}
	for _, p := range bg {
		count[string(p.Payload)]++
	}
	for _, p := range inst {
		count[string(p.Payload)]++
	}
	for _, p := range mixed {
		count[string(p.Payload)]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("payload multiset changed: %q count %d", k[:4], v)
		}
	}
}

func TestMixEmptyBackground(t *testing.T) {
	rng := NewRand(8)
	c := NewContent(rng, 3, 8)
	mixed := Mix(rng, nil, c.PlantAligned(1, 8))
	if len(mixed) != 3 {
		t.Fatalf("mix into empty background: %d packets", len(mixed))
	}
}
