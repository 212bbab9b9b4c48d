package trafficgen

import (
	"bytes"
	"math/rand"
	"testing"

	"dcstream/internal/packet"
)

// mixByInsertion is Mix as it was first written, one slice insertion per
// planted packet: the definition the one-pass Mix is held to.
func mixByInsertion(rng *rand.Rand, background []packet.Packet, planted ...[]packet.Packet) []packet.Packet {
	out := append([]packet.Packet{}, background...)
	for _, p := range planted {
		for _, pkt := range p {
			pos := rng.Intn(len(out) + 1)
			out = append(out, packet.Packet{})
			copy(out[pos+1:], out[pos:])
			out[pos] = pkt
		}
	}
	return out
}

// TestMixMatchesInsertionLoop: over 200 seeded shapes — empty backgrounds, no
// planted list, empty lists among several — Mix returns the insertion loop's
// stream packet for packet and leaves the generator in the same state.
func TestMixMatchesInsertionLoop(t *testing.T) {
	shapes := NewRand(77)
	emptyBackground, nothingPlanted, severalLists := 0, 0, 0
	for seed := uint64(0); seed < 200; seed++ {
		// Every packet is its own one-byte-wide identity: flow = serial number.
		serial := 0
		list := func(n int) []packet.Packet {
			l := make([]packet.Packet, n)
			for i := range l {
				l[i] = packet.Packet{Flow: packet.FlowLabel(serial), Payload: []byte{byte(serial)}}
				serial++
			}
			return l
		}
		bg := list([]int{0, 0, 1, 2, 40, 300}[shapes.Intn(6)])
		planted := make([][]packet.Packet, shapes.Intn(4))
		for i := range planted {
			planted[i] = list(shapes.Intn(25))
		}

		r1, r2 := NewRand(seed), NewRand(seed)
		got, want := Mix(r1, bg, planted...), mixByInsertion(r2, bg, planted...)
		if len(got) != len(want) || len(got) != serial {
			t.Fatalf("seed %d: %d packets, insertion loop %d, made %d", seed, len(got), len(want), serial)
		}
		for i := range got {
			if got[i].Flow != want[i].Flow || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("seed %d (%d background, %d lists): position %d holds packet %d, insertion loop put %d there",
					seed, len(bg), len(planted), i, got[i].Flow, want[i].Flow)
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("seed %d: Mix drew a different number of values than the insertion loop", seed)
		}
		if len(bg) == 0 {
			emptyBackground++
		}
		if len(planted) == 0 {
			nothingPlanted++
		}
		if len(planted) > 1 {
			severalLists++
		}
	}
	if emptyBackground < 20 || nothingPlanted < 20 || severalLists < 20 {
		t.Fatalf("shapes too narrow: %d empty backgrounds, %d without planted, %d with several lists",
			emptyBackground, nothingPlanted, severalLists)
	}
}

// TestFillRandomCoversEveryLength: every byte of the buffer is written,
// whatever its length modulo eight, nothing past it is, and the fill is a
// function of the generator's state alone.
func TestFillRandomCoversEveryLength(t *testing.T) {
	for n := 0; n <= 40; n++ {
		// 64 independent fills of n bytes: a byte the fill skipped would stay
		// zero in all of them.
		var or [48]byte
		for seed := uint64(0); seed < 64; seed++ {
			buf := make([]byte, 48)
			fillRandom(NewRand(seed), buf[:n])
			again := make([]byte, n)
			fillRandom(NewRand(seed), again)
			if !bytes.Equal(buf[:n], again) {
				t.Fatalf("len %d seed %d: two fills from one seed differ", n, seed)
			}
			for i, b := range buf {
				or[i] |= b
			}
		}
		for i, b := range or {
			if i < n && b == 0 {
				t.Fatalf("len %d: byte %d is never written", n, i)
			}
			if i >= n && b != 0 {
				t.Fatalf("len %d: fill wrote byte %d, past the buffer", n, i)
			}
		}
	}
}

func BenchmarkBackground(b *testing.B) {
	cfg := BackgroundConfig{Packets: 20000, SegmentSize: 536, Flows: 4096, ZipfS: 1.2}
	b.SetBytes(int64(cfg.Packets * cfg.SegmentSize))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Background(NewRand(uint64(i)), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
