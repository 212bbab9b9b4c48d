// Package trafficgen synthesizes the traffic the paper's evaluation feeds to
// the collection modules: background packet streams with uniform-random
// payloads (the paper verifies its tier-1 ISP trace is content-random, so
// pseudorandom payloads are the faithful surrogate), Zipfian flow-size skew
// to reproduce the stress test's burstiness, and common-content planting for
// both the aligned and unaligned cases.
package trafficgen

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"dcstream/internal/packet"
	"dcstream/internal/stats"
)

// BackgroundConfig describes one router's background traffic for one epoch.
type BackgroundConfig struct {
	// Packets is the number of background packets to emit.
	Packets int
	// SegmentSize is the payload length in bytes of each packet.
	SegmentSize int
	// Flows is the size of the flow population packets are drawn from.
	// Zero means every packet gets its own flow (perfectly spread traffic,
	// the paper's "even split" Monte-Carlo assumption).
	Flows int
	// ZipfS is the Zipf exponent for flow popularity (must be > 1 when
	// Flows > 0). Larger values concentrate more traffic on few flows —
	// the "bursty tier-1 trace" regime of §V-B.4.
	ZipfS float64
}

// Validate reports whether the configuration is usable.
func (c BackgroundConfig) Validate() error {
	if c.Packets < 0 {
		return fmt.Errorf("trafficgen: negative packet count %d", c.Packets)
	}
	if c.SegmentSize <= 0 {
		return fmt.Errorf("trafficgen: segment size must be positive, got %d", c.SegmentSize)
	}
	if c.Flows > 0 && c.ZipfS <= 1 {
		return fmt.Errorf("trafficgen: Zipf exponent must exceed 1, got %v", c.ZipfS)
	}
	return nil
}

// Background generates one epoch of background packets. Each payload is
// filled with pseudorandom bytes from rng, so no two background packets
// share content (hash collisions aside), matching the paper's randomness
// measurement of real traffic.
func Background(rng *rand.Rand, cfg BackgroundConfig) ([]packet.Packet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var zipf *rand.Zipf
	if cfg.Flows > 0 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Flows-1))
		if zipf == nil {
			return nil, fmt.Errorf("trafficgen: bad Zipf parameters s=%v flows=%d", cfg.ZipfS, cfg.Flows)
		}
	}
	pkts := make([]packet.Packet, cfg.Packets)
	// One contiguous payload arena keeps allocation pressure low.
	arena := make([]byte, cfg.Packets*cfg.SegmentSize)
	fillRandom(rng, arena)
	for i := range pkts {
		var flow packet.FlowLabel
		if zipf != nil {
			flow = packet.FlowLabel(zipf.Uint64())
		} else {
			flow = packet.FlowLabel(uint64(i) | 1<<40) // unique per packet
		}
		pkts[i] = packet.Packet{
			Flow:    flow,
			Payload: arena[i*cfg.SegmentSize : (i+1)*cfg.SegmentSize],
		}
	}
	return pkts, nil
}

// fillRandom fills b from rng eight bytes a draw. rng.Read spends a draw on
// every seven bytes and hands them over one at a time, which for an epoch's
// payload arena is most of the generator's time; the few-KB fills keep Read.
func fillRandom(rng *rand.Rand, b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, rng.Uint64())
	}
	if len(b) > 0 {
		copy(b, binary.LittleEndian.AppendUint64(nil, rng.Uint64()))
	}
}

// Content is a piece of common content to plant into traffic.
type Content struct {
	Data []byte
}

// NewContent creates random content spanning exactly g segments of segSize
// bytes (the paper speaks of common content "split into g packets").
func NewContent(rng *rand.Rand, g, segSize int) Content {
	data := make([]byte, g*segSize)
	rng.Read(data)
	return Content{Data: data}
}

// Segments returns how many segments of segSize the content occupies when
// transmitted with no prefix.
func (c Content) Segments(segSize int) int {
	return (len(c.Data) + segSize - 1) / segSize
}

// PlantAligned returns one aligned instance of the content: identical
// packetization for every caller (prefix length zero). The flow label
// distinguishes instances without changing payloads.
func (c Content) PlantAligned(flow packet.FlowLabel, segSize int) []packet.Packet {
	return packet.Instance(flow, c.Data, nil, 0, segSize)
}

// PlantUnaligned returns one unaligned instance: a uniform-random prefix
// length in [0, segSize) of random bytes precedes the content, shifting its
// packetization (the email-worm case of §II-A). It returns the instance's
// packets and the chosen prefix length.
func (c Content) PlantUnaligned(rng *rand.Rand, flow packet.FlowLabel, segSize int) ([]packet.Packet, int) {
	prefixLen := rng.Intn(segSize)
	prefix := make([]byte, prefixLen)
	rng.Read(prefix)
	return packet.Instance(flow, c.Data, prefix, prefixLen, segSize), prefixLen
}

// Mix interleaves instance packets into background traffic at positions
// drawn uniformly at random, preserving the relative order within each
// input. Collectors are order-insensitive, but examples read more honestly
// when planted traffic is not conveniently appended at the end.
func Mix(rng *rand.Rand, background []packet.Packet, planted ...[]packet.Packet) []packet.Packet {
	var all []packet.Packet
	for _, p := range planted {
		all = append(all, p...)
	}
	// Each planted packet goes in at a uniform position of the stream built so
	// far. Track where each one ends up (a later insertion at or before it moves
	// it one to the right) and lay the background around them in one pass.
	slots := make([]int, 0, len(all))
	for n := range all {
		pos := rng.Intn(len(background) + n + 1)
		for i, s := range slots {
			if s >= pos {
				slots[i] = s + 1
			}
		}
		slots = append(slots, pos)
	}
	out := make([]packet.Packet, len(background)+len(all))
	for i, pkt := range all {
		out[slots[i]] = pkt
	}
	sort.Ints(slots)
	next := 0
	for _, s := range slots {
		n := copy(out[next:s], background)
		background, next = background[n:], s+1
	}
	copy(out[next:], background)
	return out
}

// NewRand is a convenience re-export so callers configure one import.
func NewRand(seed uint64) *rand.Rand { return stats.NewRand(seed) }
