package core

import (
	"testing"

	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/unaligned"
)

func TestNewAlignedValidation(t *testing.T) {
	if _, err := NewAligned(AlignedConfig{Routers: 1, BitmapBits: 64}); err == nil {
		t.Fatal("single-router system accepted")
	}
	if _, err := NewAligned(AlignedConfig{Routers: 4, BitmapBits: 0}); err == nil {
		t.Fatal("zero-width bitmap accepted")
	}
}

func TestAlignedSystemEndToEnd(t *testing.T) {
	const routers = 48
	const bits = 1 << 13
	sys, err := NewAligned(AlignedConfig{Routers: routers, BitmapBits: bits, HashSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Routers() != routers {
		t.Fatalf("Routers()=%d", sys.Routers())
	}
	rng := stats.NewRand(6)
	content := trafficgen.NewContent(rng, 14, 536)
	for r := 0; r < routers; r++ {
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: 2500, SegmentSize: 536,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range bg {
			sys.Router(r).Update(p)
		}
		if r < 20 { // 20 of 48 routers carry the content
			for _, p := range content.PlantAligned(packet.FlowLabel(r), 536) {
				sys.Router(r).Update(p)
			}
		}
	}
	rep, err := sys.EndEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detection.Found {
		t.Fatal("planted 20x14 content not detected")
	}
	carriers := 0
	for _, r := range rep.Detection.Rows {
		if r < 20 {
			carriers++
		}
	}
	if carriers < 18 {
		t.Fatalf("only %d/20 carrier routers identified", carriers)
	}
	if rep.DigestBytes != int64(routers*bits/8) {
		t.Fatalf("digest accounting %d bytes, want %d", rep.DigestBytes, routers*bits/8)
	}
	// Collectors reset for the next epoch.
	if sys.Router(0).Packets() != 0 {
		t.Fatal("collector not reset after EndEpoch")
	}
}

func TestAlignedSystemNoContent(t *testing.T) {
	sys, err := NewAligned(AlignedConfig{Routers: 24, BitmapBits: 1 << 12, HashSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(10)
	for r := 0; r < 24; r++ {
		bg, _ := trafficgen.Background(rng, trafficgen.BackgroundConfig{Packets: 1300, SegmentSize: 536})
		for _, p := range bg {
			sys.Router(r).Update(p)
		}
	}
	rep, err := sys.EndEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detection.Found {
		t.Fatalf("false positive on pure background: rows=%v", rep.Detection.Rows)
	}
}

func unalignedTestConfig() UnalignedConfig {
	return UnalignedConfig{
		Routers: 20,
		Collector: unaligned.CollectorConfig{
			Groups: 4, ArraysPerGroup: 10, ArrayBits: 512,
			SegmentSize: 100, FragmentLen: 8, MinPayload: 40,
			HashSeed: 77,
		},
		Seed: 21,
	}
}

func TestNewUnalignedValidation(t *testing.T) {
	cfg := unalignedTestConfig()
	cfg.Routers = 1
	if _, err := NewUnaligned(cfg); err == nil {
		t.Fatal("single-router system accepted")
	}
	cfg = unalignedTestConfig()
	cfg.Collector.Groups = 0
	if _, err := NewUnaligned(cfg); err == nil {
		t.Fatal("bad collector config accepted")
	}
}

func TestUnalignedSystemEndToEnd(t *testing.T) {
	cfg := unalignedTestConfig()
	sys, err := NewUnaligned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.ComponentThreshold() <= 0 {
		t.Fatal("component threshold not calibrated")
	}
	rng := stats.NewRand(23)
	content := trafficgen.NewContent(rng, 60, cfg.Collector.SegmentSize)
	prefix := make([]byte, cfg.Collector.SegmentSize)
	rng.Read(prefix)

	const carriers = 14
	carrierRouter := map[int]bool{}
	for r := 0; r < cfg.Routers; r++ {
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: 183 * cfg.Collector.Groups, SegmentSize: cfg.Collector.SegmentSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range bg {
			sys.Router(r).Update(p)
		}
		if r < carriers {
			carrierRouter[r] = true
			l := rng.Intn(cfg.Collector.SegmentSize)
			for _, p := range packet.Instance(packet.FlowLabel(1<<50|uint64(r)), content.Data, prefix, l, cfg.Collector.SegmentSize) {
				sys.Router(r).Update(p)
			}
		}
	}
	rep, err := sys.EndEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ER.PatternDetected {
		t.Fatalf("ER test negative: largest component %d < %d",
			rep.ER.LargestComponent, rep.ER.Threshold)
	}
	tp := 0
	for _, r := range rep.RouterIDs {
		if carrierRouter[r] {
			tp++
		}
	}
	if tp < carriers/2 {
		t.Fatalf("identified %d/%d carrier routers (got %v)", tp, carriers, rep.RouterIDs)
	}
	if rep.DigestBytes == 0 {
		t.Fatal("digest accounting missing")
	}
	if sys.Router(0).Packets() != 0 {
		t.Fatal("collector not reset after EndEpoch")
	}
}

func TestUnalignedSystemNullEpoch(t *testing.T) {
	cfg := unalignedTestConfig()
	cfg.Seed = 99
	sys, err := NewUnaligned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(100)
	for r := 0; r < cfg.Routers; r++ {
		bg, _ := trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: 183 * cfg.Collector.Groups, SegmentSize: cfg.Collector.SegmentSize,
		})
		for _, p := range bg {
			sys.Router(r).Update(p)
		}
	}
	rep, err := sys.EndEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ER.PatternDetected {
		t.Fatalf("false positive: largest component %d >= %d",
			rep.ER.LargestComponent, rep.ER.Threshold)
	}
	if len(rep.Vertices) != 0 || len(rep.RouterIDs) != 0 {
		t.Fatal("core finder ran despite negative ER test")
	}
}

func TestCalibrateComponentThreshold(t *testing.T) {
	th := CalibrateComponentThreshold(1, 5000, 0.5/5000, 10)
	if th < 4 || th > 200 {
		t.Fatalf("implausible threshold %d for subcritical G(5000, 1e-4)", th)
	}
}

func TestAlignedSystemMultipleEpochs(t *testing.T) {
	// The same system must serve consecutive epochs independently: content
	// present only in epoch 2 must be detected only there.
	sys, err := NewAligned(AlignedConfig{Routers: 24, BitmapBits: 1 << 12, HashSeed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(14)
	content := trafficgen.NewContent(rng, 12, 536)
	feed := func(plant bool) AlignedReport {
		for r := 0; r < 24; r++ {
			bg, _ := trafficgen.Background(rng, trafficgen.BackgroundConfig{Packets: 1300, SegmentSize: 536})
			for _, p := range bg {
				sys.Router(r).Update(p)
			}
			if plant && r < 12 {
				for _, p := range content.PlantAligned(packet.FlowLabel(r), 536) {
					sys.Router(r).Update(p)
				}
			}
		}
		rep, err := sys.EndEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := feed(false); rep.Detection.Found {
		t.Fatal("epoch 1 (no content) detected a pattern")
	}
	if rep := feed(true); !rep.Detection.Found {
		t.Fatal("epoch 2 (planted) missed the pattern")
	}
	if rep := feed(false); rep.Detection.Found {
		t.Fatal("epoch 3 (no content) detected a stale pattern — reset leak")
	}
}
