package transport

import (
	"math/rand"
	"testing"
)

// buildDatagram packs msgs into one well-formed datagram for seeding.
func buildDatagram(t testing.TB, h DatagramHeader, msgs ...Message) []byte {
	t.Helper()
	buf := make([]byte, udpHeaderLen)
	h.Count = len(msgs)
	putDatagramHeader(buf, h)
	var err error
	for _, m := range msgs {
		if buf, err = AppendFrame(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// FuzzReadDatagram feeds arbitrary bytes through the datagram pipeline the
// UDP server runs per packet: prefilter, then frame-by-frame decode. The
// invariants are the codec's load-bearing promises — no panic on any input,
// no message emitted past the first bad frame, every emitted message
// re-encodable, and the prefilter never rejecting what decode would accept.
func FuzzReadDatagram(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	one := buildDatagram(f, DatagramHeader{Sender: 1, Seq: 1},
		AlignedDigest{RouterID: 2, Epoch: 5, Bitmap: randomVector(3, 256)})
	f.Add(one)
	f.Add(buildDatagram(f, DatagramHeader{Sender: 9, Seq: 44},
		AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(1, 64)},
		UnalignedDigest{Epoch: 2, Digest: randomUnaligned(rng, 4, 2, 3, 128)},
		AlignedDigest{RouterID: 7, Epoch: 1, Bitmap: randomVector(2, 512)}))
	// Corrupt tail: valid first frame, garbage second.
	bad := append(append([]byte{}, one...), "not a frame"...)
	putDatagramHeader(bad[:udpHeaderLen], DatagramHeader{Sender: 1, Seq: 2, Count: 2})
	f.Add(bad)
	// A frame claiming the hostile overflow geometry, wrapped in a datagram.
	hostile := make([]byte, udpHeaderLen)
	putDatagramHeader(hostile, DatagramHeader{Sender: 3, Seq: 1, Count: 1})
	f.Add(append(hostile, hostileGeometryFrame(0xFFFFFFFF, 0xFFFFFFFF)...))
	f.Add([]byte{})
	f.Add([]byte{'D', 'C', 'S', 'U', 1, 0, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if !prefilterDatagram(data) {
			// The prefilter may only reject datagrams decode would also
			// refuse; check it is not throwing away valid traffic.
			if len(data) >= udpHeaderLen && len(data) <= maxDatagram {
				if _, _, err := decodeDatagram(data, func(Message) {}); err == nil &&
					parseDatagramHeader(data).Count > 0 && isUDPHeader(data) {
					t.Fatal("prefilter rejected a datagram that decodes cleanly")
				}
			}
			return
		}
		h := parseDatagramHeader(data)
		emitted := 0
		_, decoded, err := decodeDatagram(data, func(m Message) {
			emitted++
			if encErr := reencode(m); encErr != nil {
				t.Fatalf("decoded message fails re-encode: %v", encErr)
			}
		})
		if decoded != emitted {
			t.Fatalf("decoded count %d != emitted %d", decoded, emitted)
		}
		if err == nil && decoded != h.Count {
			t.Fatalf("clean decode of %d frames, header declared %d", decoded, h.Count)
		}
	})
}

// isUDPHeader reports whether data opens with the exact magic+version the
// prefilter demands (used only to scope the fuzz cross-check).
func isUDPHeader(data []byte) bool {
	return len(data) >= udpHeaderLen &&
		data[0] == 'D' && data[1] == 'C' && data[2] == 'S' && data[3] == 'U' &&
		data[4] == udpVersion && data[5] == 0
}

// reencode checks a decoded message still satisfies AppendFrame's
// invariants.
func reencode(m Message) error {
	_, err := AppendFrame(nil, m)
	return err
}
