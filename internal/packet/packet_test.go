package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"dcstream/internal/stats"
)

func TestPacketizeSizes(t *testing.T) {
	cases := []struct {
		dataLen, seg int
		wantPkts     int
		wantLast     int
	}{
		{0, 536, 0, 0},
		{1, 536, 1, 1},
		{536, 536, 1, 536},
		{537, 536, 2, 1},
		{1072, 536, 2, 536},
		{5000, 536, 10, 176},
	}
	for _, c := range cases {
		data := make([]byte, c.dataLen)
		pkts := Packetize(7, data, c.seg)
		if len(pkts) != c.wantPkts {
			t.Fatalf("len(data)=%d: got %d packets want %d", c.dataLen, len(pkts), c.wantPkts)
		}
		for i, p := range pkts {
			if p.Flow != 7 {
				t.Fatalf("packet %d wrong flow", i)
			}
			want := c.seg
			if i == len(pkts)-1 {
				want = c.wantLast
			}
			if len(p.Payload) != want {
				t.Fatalf("packet %d payload len %d want %d", i, len(p.Payload), want)
			}
		}
	}
}

func TestPacketizeRoundTrip(t *testing.T) {
	f := func(data []byte, segRaw uint8) bool {
		seg := int(segRaw%100) + 1
		pkts := Packetize(1, data, seg)
		var rejoined []byte
		for _, p := range pkts {
			rejoined = append(rejoined, p.Payload...)
		}
		return bytes.Equal(rejoined, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for segSize=0")
		}
	}()
	Packetize(1, []byte("x"), 0)
}

func TestInstanceAlignedIdentical(t *testing.T) {
	rng := stats.NewRand(1)
	content := make([]byte, 5000)
	rng.Read(content)
	a := Instance(1, content, nil, 0, 536)
	b := Instance(2, content, nil, 0, 536)
	if len(a) != len(b) {
		t.Fatal("aligned instances differ in packet count")
	}
	for i := range a {
		if !bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatalf("aligned instances differ at packet %d", i)
		}
	}
}

// TestUnalignedShiftProperty is the cornerstone of offset sampling (§IV-A):
// for two instances with prefix lengths l1, l2 and intra-segment offsets
// o1, o2 such that o1 - l1 ≡ o2 - l2 (mod segSize), the fragments sampled at
// those offsets are equal, packet-for-packet up to a whole-packet shift.
func TestUnalignedShiftProperty(t *testing.T) {
	const seg = 100
	const fragLen = 8
	rng := stats.NewRand(2)
	content := make([]byte, 30*seg)
	rng.Read(content)
	prefix := make([]byte, seg)
	rng.Read(prefix)

	sample := func(pkts []Packet, off int) [][]byte {
		var frags [][]byte
		for _, p := range pkts {
			if off+fragLen <= len(p.Payload) {
				frags = append(frags, p.Payload[off:off+fragLen])
			}
		}
		return frags
	}

	for _, tc := range []struct{ l1, l2, o1 int }{
		{10, 30, 15}, {0, 50, 0}, {99, 1, 40}, {25, 25, 70},
	} {
		o2 := (tc.o1 - tc.l1 + tc.l2) % seg
		if o2 < 0 {
			o2 += seg
		}
		p1 := Instance(1, content, prefix, tc.l1, seg)
		p2 := Instance(2, content, prefix, tc.l2, seg)
		f1 := sample(p1, tc.o1)
		f2 := sample(p2, o2)
		// Count how many fragments of f1 appear in f2 — all content-region
		// fragments must match (only boundary fragments may fall off).
		set := map[string]bool{}
		for _, f := range f2 {
			set[string(f)] = true
		}
		matched := 0
		for _, f := range f1 {
			if set[string(f)] {
				matched++
			}
		}
		if matched < len(f1)-2 {
			t.Fatalf("l1=%d l2=%d o1=%d o2=%d: only %d/%d fragments matched",
				tc.l1, tc.l2, tc.o1, o2, matched, len(f1))
		}
	}
}

// TestUnalignedMismatchedOffsets verifies the converse: when the offset
// congruence does not hold, fragments (of random content) essentially never
// match — this is why a single fixed offset has only 1/segSize match
// probability, motivating offset sampling.
func TestUnalignedMismatchedOffsets(t *testing.T) {
	const seg = 100
	const fragLen = 8
	rng := stats.NewRand(3)
	content := make([]byte, 30*seg)
	rng.Read(content)
	prefix := make([]byte, seg)
	rng.Read(prefix)

	p1 := Instance(1, content, prefix, 10, seg)
	p2 := Instance(2, content, prefix, 30, seg)
	// o1 - l1 = 5, o2 - l2 = 7: incongruent.
	set := map[string]bool{}
	for _, p := range p2 {
		if 37+fragLen <= len(p.Payload) {
			set[string(p.Payload[37:37+fragLen])] = true
		}
	}
	for i, p := range p1 {
		if 15+fragLen <= len(p.Payload) {
			if set[string(p.Payload[15:15+fragLen])] {
				t.Fatalf("packet %d matched despite incongruent offsets", i)
			}
		}
	}
}
