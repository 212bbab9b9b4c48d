package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"dcstream/internal/bitvec"
	"dcstream/internal/unaligned"
)

// encodeFrame renders one message to bytes for corruption experiments.
func encodeFrame(t *testing.T, m Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func randomUnaligned(rng *rand.Rand, router, groups, arrays, bits int) *unaligned.Digest {
	d := &unaligned.Digest{RouterID: router, Rows: make([][]*bitvec.Vector, groups)}
	for g := range d.Rows {
		d.Rows[g] = make([]*bitvec.Vector, arrays)
		for a := range d.Rows[g] {
			v := bitvec.New(bits)
			v.FillRandomHalf(rng.Uint64)
			d.Rows[g][a] = v
		}
	}
	return d
}

// TestQuickAlignedRoundTrip drives the aligned codec with random router ids,
// epochs, and bitmap shapes.
func TestQuickAlignedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(router, epoch int32, bitsRaw uint16) bool {
		bits := int(bitsRaw)%4096 + 1
		v := bitvec.New(bits)
		v.FillRandomHalf(rng.Uint64)
		in := AlignedDigest{RouterID: int(router), Epoch: int(epoch), Bitmap: v}
		m, err := Read(bytes.NewReader(encodeFrame(t, in)))
		if err != nil {
			return false
		}
		out, ok := m.(AlignedDigest)
		return ok && out.RouterID == in.RouterID && out.Epoch == in.Epoch && bitvec.Equal(out.Bitmap, in.Bitmap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnalignedRoundTrip drives the unaligned codec with random
// geometry (always rectangular — ragged digests are rejected at Write).
func TestQuickUnalignedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(router int32, epoch int32, gRaw, aRaw, bRaw uint8) bool {
		groups, arrays, bits := int(gRaw)%5+1, int(aRaw)%5+1, (int(bRaw)%8+1)*64
		in := UnalignedDigest{Epoch: int(epoch), Digest: randomUnaligned(rng, int(router), groups, arrays, bits)}
		m, err := Read(bytes.NewReader(encodeFrame(t, in)))
		if err != nil {
			return false
		}
		out, ok := m.(UnalignedDigest)
		if !ok || out.Epoch != in.Epoch || out.Digest.RouterID != in.Digest.RouterID {
			return false
		}
		if len(out.Digest.Rows) != groups {
			return false
		}
		for g := range in.Digest.Rows {
			if len(out.Digest.Rows[g]) != arrays {
				return false
			}
			for a := range in.Digest.Rows[g] {
				if !bitvec.Equal(out.Digest.Rows[g][a], in.Digest.Rows[g][a]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bogusMessage is a Message kind the codec has no type byte for.
type bogusMessage struct{}

func (bogusMessage) isMessage() {}

// TestWriteRejectsRaggedUnaligned is the headline wire bugfix: a digest
// whose groups disagree on array count must fail loudly at the encoder
// instead of serializing a frame that misparses on decode. It and every
// other message the encoder rejects must leave the carrier untouched: Write
// makes no write, AppendFrame returns the buffer it was given.
func TestWriteRejectsRaggedUnaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ragged := randomUnaligned(rng, 7, 3, 4, 128)
	ragged.Rows[1] = ragged.Rows[1][:2] // group 1 has 2 arrays, others 4
	nilArray := randomUnaligned(rng, 7, 2, 2, 128)
	nilArray.Rows[1][1] = nil // the last one: everything before it serializes
	for _, tc := range []struct {
		name string
		msg  Message
	}{
		{"ragged groups", UnalignedDigest{Epoch: 1, Digest: ragged}},
		{"nil array", UnalignedDigest{Digest: nilArray}},
		{"nil digest", UnalignedDigest{}},
		{"nil bitmap", AlignedDigest{RouterID: 1}},
		{"unknown type", bogusMessage{}},
	} {
		var w scriptedConn // counts the writes it takes
		if err := Write(&w, tc.msg); err == nil {
			t.Errorf("%s: serialized", tc.name)
		}
		if w.writes != 0 {
			t.Errorf("%s: %d writes before failing", tc.name, w.writes)
		}
		prefix := []byte("frames already staged")
		got, err := AppendFrame(prefix, tc.msg)
		if err == nil {
			t.Errorf("%s: appended", tc.name)
		}
		if !bytes.Equal(got, []byte("frames already staged")) {
			t.Errorf("%s: AppendFrame returned %q, want the %q it was given", tc.name, got, prefix)
		}
	}
}

// TestCorruptionMatrix flips, truncates, and rewrites every region of valid
// frames and requires Read to fail cleanly (no panic, no silent success).
func TestCorruptionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	frames := [][]byte{
		encodeFrame(t, AlignedDigest{RouterID: 3, Epoch: 9, Bitmap: randomVector(1, 512)}),
		encodeFrame(t, UnalignedDigest{Epoch: 2, Digest: randomUnaligned(rng, 1, 2, 3, 128)}),
	}
	for fi, frame := range frames {
		// Truncations at every prefix length (header and payload).
		for cut := 0; cut < len(frame); cut++ {
			_, err := Read(bytes.NewReader(frame[:cut]))
			if err == nil {
				t.Fatalf("frame %d truncated at %d accepted", fi, cut)
			}
			if cut == 0 && err != io.EOF {
				t.Fatalf("empty stream: want io.EOF, got %v", err)
			}
		}
		// Single-bit flips across the whole frame. Whatever the flip hits
		// (magic, type, length, CRC, payload), Read must reject or — only
		// if it flipped nothing semantic — return identical bytes; with
		// CRC-32C over the payload and a fixed magic, every flip must fail.
		for i := 0; i < len(frame)*8; i += 7 {
			b := append([]byte(nil), frame...)
			b[i/8] ^= 1 << (i % 8)
			if m, err := Read(bytes.NewReader(b)); err == nil {
				// A flip in the length field can only "succeed" by reading
				// beyond the buffer, which ReadFull turns into an error —
				// so any success here is a real codec hole.
				t.Fatalf("frame %d bit %d flipped but decoded %T", fi, i, m)
			}
		}
	}
}

// TestBadGeometryRejected hand-crafts unaligned frames with implausible
// group/array counts.
func TestBadGeometryRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	frame := encodeFrame(t, UnalignedDigest{Epoch: 1, Digest: randomUnaligned(rng, 1, 2, 2, 64)})
	// Payload starts at headerLen; geometry words at offsets 8 and 12.
	for _, mutate := range []func(p []byte){
		func(p []byte) { p[8], p[9], p[10], p[11] = 0xff, 0xff, 0xff, 0x0f },   // absurd group count
		func(p []byte) { p[12], p[13], p[14], p[15] = 0xff, 0xff, 0xff, 0x0f }, // absurd array count
		func(p []byte) { p[8] = 200 },                                          // more groups than vectors present
	} {
		b := append([]byte(nil), frame...)
		payload := b[headerLen:]
		mutate(payload)
		rewriteChecksum(b)
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bad geometry: %v", err)
		}
	}
}

// hostileFrame wraps payload in a frame of the given kind with a valid CRC,
// so what a hostile payload meets is the decoder, not the checksum.
func hostileFrame(kind byte, payload []byte) []byte {
	frame := make([]byte, headerLen, headerLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], magic)
	frame[4] = kind
	binary.LittleEndian.PutUint32(frame[5:], uint32(len(payload)))
	frame = append(frame, payload...)
	rewriteChecksum(frame)
	return frame
}

// hostileLengthFrame is a bare 13-byte header declaring length payload bytes
// it does not carry.
func hostileLengthFrame(length uint32) []byte {
	frame := hostileFrame(typeAligned, nil)
	binary.LittleEndian.PutUint32(frame[5:], length)
	return frame
}

// hostileVectorFrame is an aligned digest whose bitmap declares bits bits and
// carries body for them.
func hostileVectorFrame(bits uint32, body []byte) []byte {
	payload := make([]byte, 12, 12+len(body))
	binary.LittleEndian.PutUint32(payload[0:], 1) // router
	binary.LittleEndian.PutUint32(payload[4:], 1) // epoch
	binary.LittleEndian.PutUint32(payload[8:], bits)
	return hostileFrame(typeAligned, append(payload, body...))
}

// hostileGeometryFrame builds the 16-byte-payload unaligned frame that used
// to panic the decoder: groups and arrays both 0xFFFFFFFF, whose product
// wraps int64 to a negative number and slipped past the old single-product
// guard into a make() of 2^32-1 group slots.
func hostileGeometryFrame(groups, arrays uint32) []byte {
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint32(payload[0:], 1) // router
	binary.LittleEndian.PutUint32(payload[4:], 1) // epoch
	binary.LittleEndian.PutUint32(payload[8:], groups)
	binary.LittleEndian.PutUint32(payload[12:], arrays)
	return hostileFrame(typeUnaligned, payload)
}

// allocCeiling is what rejecting one hostile frame may allocate: a header
// buffer, a reader and an error, with room for the race detector's shadow —
// and hundreds of times under the smallest allocation (24 MiB) a missing bound
// lets one of the frames below size.
const allocCeiling = 64 << 10

// rejectsCheaply holds one decode of a hostile input to the whole contract:
// ErrBadFrame, no panic, under allocCeiling bytes allocated. TotalAlloc is
// process-wide, so its callers must not run in parallel.
func rejectsCheaply(t *testing.T, what string, decode func() error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panic: %v", what, r)
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("%s: got %v, want ErrBadFrame", what, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > allocCeiling {
		t.Errorf("%s: allocated %d bytes, ceiling %d", what, got, allocCeiling)
	}
}

// TestGeometryOverflowRejected is the hostile-frame table: it holds, for the
// one frame decoder and every way into it, that no length read off the wire
// sizes anything before it is bounded. Each frame is a few dozen bytes with a
// valid CRC, lies about one length, and must be refused — by the stream
// adaptor, by the buffer decoder, and packed in a datagram with an honest
// envelope — as ErrBadFrame, without a panic and without the allocation the
// lie asks for. Every bound in frameLen, getVector and decodeUnaligned whose
// removal an input can observe has a frame here that observes it.
func TestGeometryOverflowRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"frame length 0xFFFFFFFF", hostileLengthFrame(0xFFFFFFFF)},
		{"frame length maxFrame+1", hostileLengthFrame(maxFrame + 1)},
		{"vector bits 0xFFFFFFFF", hostileVectorFrame(0xFFFFFFFF, nil)},
		// CRC-valid and in bound, but one word short of the bits it declares:
		// an unchecked copy loop indexes past the payload.
		{"vector body shorter than its bits", hostileVectorFrame(128, make([]byte, 8))},
		{"geometry 0xFFFFFFFF x 0xFFFFFFFF (product wraps int64 negative)", hostileGeometryFrame(0xFFFFFFFF, 0xFFFFFFFF)},
		{"geometry 2^31 x 2^31 (groups*arrays*4 wraps uint64 to 0)", hostileGeometryFrame(1<<31, 1<<31)},
		{"geometry 2^16 x 2^16 (product 2^32 wraps uint32 to 0)", hostileGeometryFrame(1<<16, 1<<16)},
		{"geometry 2^21 x 1 (one dimension over the per-dim bound)", hostileGeometryFrame(1<<21, 1)},
		{"geometry 1 x 2^21 (one dimension over the per-dim bound)", hostileGeometryFrame(1, 1<<21)},
		{"geometry 2^13 x 2^13 (dims in bound, product over the vector bound)", hostileGeometryFrame(1<<13, 1<<13)},
		// Plausible geometries with no payload behind them, not even the
		// vector length prefixes: rejected before any per-group allocation
		// (2^20 group slots would be 24 MiB).
		{"geometry 2^20 x 2^4, no payload", hostileGeometryFrame(1<<20, 1<<4)},
		{"geometry 2^10 x 2^10, no payload", hostileGeometryFrame(1<<10, 1<<10)},
	} {
		rejectsCheaply(t, tc.name+" via Read", func() error {
			_, err := Read(bytes.NewReader(tc.frame))
			return err
		})
		rejectsCheaply(t, tc.name+" via ReadFrame", func() error {
			_, _, err := ReadFrame(tc.frame)
			return err
		})
		dg := make([]byte, udpHeaderLen)
		putDatagramHeader(dg, DatagramHeader{Sender: 1, Seq: 1, Count: 1})
		dg = append(dg, tc.frame...)
		rejectsCheaply(t, tc.name+" in a datagram", func() error {
			if !prefilterDatagram(dg) {
				t.Errorf("%s: prefilter refused an honest envelope; the frame walk never ran", tc.name)
			}
			_, decoded, err := decodeDatagram(dg, func(m Message) {
				t.Errorf("%s: datagram walk emitted a %T", tc.name, m)
			})
			if decoded != 0 {
				t.Errorf("%s: datagram walk counted %d frames decoded", tc.name, decoded)
			}
			return err
		})
	}
}

// rewriteChecksum fixes up a frame's CRC after deliberate payload edits so
// the test exercises the decoder, not the checksum.
func rewriteChecksum(frame []byte) {
	crc := crc32.Checksum(frame[headerLen:], castagnoli)
	binary.LittleEndian.PutUint32(frame[9:], crc)
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder through both of
// its entry points; the engine grows the corpus from the seeded valid frames.
// Neither may panic or allocate unboundedly, and the stream adaptor and the
// buffer decoder must agree frame for frame on accept or reject and on the
// message. The one difference allowed is the error class when the input ends
// inside a frame: a read error from Read, ErrBadFrame from ReadFrame.
func FuzzReadFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	var buf bytes.Buffer
	Write(&buf, AlignedDigest{RouterID: 2, Epoch: 5, Bitmap: randomVector(3, 256)})
	f.Add(buf.Bytes())
	buf.Reset()
	Write(&buf, UnalignedDigest{Epoch: 1, Digest: randomUnaligned(rng, 4, 2, 3, 128)})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{'D', 'C', 'S', '1', 1, 0, 0, 0, 0, 0, 0, 0, 0})
	// The geometry-overflow frame that once drove a makeslice panic.
	f.Add(hostileGeometryFrame(0xFFFFFFFF, 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rest := data
		for {
			m, err := Read(r)
			bm, brest, berr := ReadFrame(rest)
			if err != nil {
				if !errors.Is(berr, ErrBadFrame) {
					t.Fatalf("Read rejected (%v) what ReadFrame answered with %v", err, berr)
				}
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("Read failed with %v: neither ErrBadFrame nor an input that ended", err)
				}
				return
			}
			if berr != nil || !reflect.DeepEqual(m, bm) || len(brest) != r.Len() {
				t.Fatalf("Read decoded %+v with %d bytes left; ReadFrame (%+v, %d bytes left, %v)", m, r.Len(), bm, len(brest), berr)
			}
			rest = brest
			// Decoded messages must re-encode cleanly: decode output always
			// satisfies the invariants the encoder checks.
			if err := Write(io.Discard, m); err != nil {
				t.Fatalf("decoded message fails re-encode: %v", err)
			}
		}
	})
}
