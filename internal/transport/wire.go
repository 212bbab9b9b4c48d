// Package transport implements the "ship digests to the analysis center"
// leg of the DCS architecture (Figure 2): a compact binary wire format for
// the aligned and unaligned digests and a TCP server/client pair. A digest
// is three orders of magnitude smaller than the traffic it summarizes, so a
// single analysis center can terminate thousands of collector connections.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dcstream/internal/bitvec"
	"dcstream/internal/unaligned"
)

// Frame layout (little-endian):
//
//	magic   uint32  'D','C','S','1'
//	type    uint8   message kind
//	length  uint32  payload byte count
//	crc     uint32  CRC-32C (Castagnoli) of the payload
//	payload [length]byte
//
// The checksum guards the analysis center against digest corruption in
// flight: a flipped bit in a bitmap would otherwise silently perturb the
// correlation statistics rather than fail loudly.
const (
	magic = 0x31534344 // "DCS1"

	headerLen = 13

	typeAligned   = 1
	typeUnaligned = 2
	typeReport    = 3

	// maxFrame bounds a frame's payload so a corrupt or hostile peer
	// cannot make the center allocate unbounded memory. The largest
	// legitimate digest (a 4M-bit aligned bitmap) is 512 KiB.
	maxFrame = 64 << 20

	// maxGeometryDim bounds each unaligned geometry dimension (groups,
	// arrays per group) individually; maxGeometryVectors bounds their
	// product, computed in uint64 so no hostile pair of dimensions can
	// wrap past the guard.
	maxGeometryDim     = 1 << 20
	maxGeometryVectors = 1 << 24
)

// ErrBadFrame reports a malformed or oversized frame.
var ErrBadFrame = errors.New("transport: malformed frame")

// Message is a value that can travel over the digest channel.
type Message interface{ isMessage() }

// AlignedDigest carries one router's aligned-case epoch bitmap.
type AlignedDigest struct {
	RouterID int
	Epoch    int
	Bitmap   *bitvec.Vector
}

func (AlignedDigest) isMessage() {}

// UnalignedDigest carries one router's unaligned-case array bank.
type UnalignedDigest struct {
	Epoch  int
	Digest *unaligned.Digest
}

func (UnalignedDigest) isMessage() {}

// Report carries an opaque control-plane payload upstream: a shard's
// analyzed WindowReport, encoded by internal/shard, pushed from a shard
// center to its coordinator over the same framed channel the digests ride.
// The transport does not interpret the payload — keeping the codec free of a
// center dependency — it only frames and checksums it like any digest.
// Centers that do not expect reports count them as unknown messages and
// drop them (forward compatibility), so a misdirected report is harmless.
type Report struct {
	Payload []byte
}

func (Report) isMessage() {}

// castagnoli is the CRC-32C table shared by the encoder and the decoder.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame encodes m as one frame appended to buf. It is the only frame
// encoder: the TCP clients, the datagram batcher and the journal all hand
// its bytes to their carrier in one write, which is what makes a journal
// segment byte-identical to the wire. The header is reserved first, the
// payload serialized straight into buf behind it (no intermediate payload
// allocation, whatever the kind), and the header back-patched once the
// payload length and CRC are known. Malformed digests (nil bitmaps, ragged
// unaligned geometry) are rejected with buf returned exactly as it came — a
// half-written frame would desynchronize every frame after it.
func AppendFrame(buf []byte, m Message) ([]byte, error) {
	start := len(buf)
	var hdr [headerLen]byte
	out := append(buf, hdr[:]...)
	var kind byte
	var err error
	switch d := m.(type) {
	case AlignedDigest:
		kind = typeAligned
		out, err = appendAligned(out, d)
	case UnalignedDigest:
		kind = typeUnaligned
		out, err = appendUnaligned(out, d)
	case Report:
		kind = typeReport
		if len(d.Payload) > maxFrame {
			return buf, fmt.Errorf("transport: report payload of %d bytes exceeds the %d-byte frame limit", len(d.Payload), maxFrame)
		}
		out = append(out, d.Payload...)
	default:
		return buf, fmt.Errorf("transport: unknown message type %T", m)
	}
	if err != nil {
		return buf, err
	}
	payload := out[start+headerLen:]
	binary.LittleEndian.PutUint32(out[start:], magic)
	out[start+4] = kind
	binary.LittleEndian.PutUint32(out[start+5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start+9:], crc32.Checksum(payload, castagnoli))
	return out, nil
}

// frameLen validates a frame header's magic and returns the payload length
// it declares, bounded by maxFrame.
func frameLen(hdr []byte) (int, error) {
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	length := binary.LittleEndian.Uint32(hdr[5:])
	if length > maxFrame {
		return 0, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, length)
	}
	return int(length), nil
}

// decodeFrame checks payload against the header's checksum and decodes it as
// the header's message kind. The message aliases nothing in payload: vectors
// are copied out word by word, and a report — retained long past the frame
// walk, while a receive buffer is reused for the next datagram — gets its own
// copy.
func decodeFrame(hdr, payload []byte) (Message, error) {
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[9:]); got != want {
		return nil, fmt.Errorf("%w: payload checksum %08x, header says %08x", ErrBadFrame, got, want)
	}
	switch hdr[4] {
	case typeAligned:
		return decodeAligned(payload)
	case typeUnaligned:
		return decodeUnaligned(payload)
	case typeReport:
		return Report{Payload: append([]byte(nil), payload...)}, nil
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, hdr[4])
	}
}

// ReadFrame decodes the frame at the start of buf — a received datagram's
// frames, a journal segment — and returns the message and the bytes after
// it. It is the only frame decoder. A buffer that ends inside a frame is
// ErrBadFrame: unlike a stream, there is nothing more to wait for.
func ReadFrame(buf []byte) (Message, []byte, error) {
	if len(buf) < headerLen {
		return nil, nil, fmt.Errorf("%w: truncated frame header", ErrBadFrame)
	}
	n, err := frameLen(buf)
	if err != nil {
		return nil, nil, err
	}
	if len(buf)-headerLen < n {
		return nil, nil, fmt.Errorf("%w: truncated frame payload", ErrBadFrame)
	}
	end := headerLen + n
	m, err := decodeFrame(buf[:headerLen], buf[headerLen:end])
	if err != nil {
		return nil, nil, err
	}
	return m, buf[end:], nil
}

// Write encodes a message as one frame on w, in one w.Write; a message the
// encoder rejects costs w no write at all.
func Write(w io.Writer, m Message) error {
	frame, err := AppendFrame(nil, m)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// Read decodes the next frame from r. io.EOF is returned unwrapped when the
// stream ends cleanly at a frame boundary; a stream that ends inside a frame
// is a read error, not ErrBadFrame — the peer died, it did not lie.
func Read(r io.Reader) (Message, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	n, err := frameLen(hdr)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: read payload: %w", err)
	}
	return decodeFrame(hdr, payload)
}

func putVector(buf []byte, v *bitvec.Vector) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Len()))
	for _, w := range v.Words() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func getVector(buf []byte) (*bitvec.Vector, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated vector header", ErrBadFrame)
	}
	bits := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if bits < 0 || bits > maxFrame*8 {
		return nil, nil, fmt.Errorf("%w: vector of %d bits", ErrBadFrame, bits)
	}
	words := (bits + 63) / 64
	if len(buf) < words*8 {
		return nil, nil, fmt.Errorf("%w: truncated vector body", ErrBadFrame)
	}
	v := bitvec.New(bits)
	dst := v.Words()
	for i := 0; i < words; i++ {
		dst[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	buf = buf[words*8:]
	// Reject set bits beyond Len: they would corrupt weight computations.
	if rem := bits % 64; rem != 0 && words > 0 && dst[words-1]>>uint(rem) != 0 {
		return nil, nil, fmt.Errorf("%w: tail bits set beyond vector length", ErrBadFrame)
	}
	return v, buf, nil
}

func appendAligned(buf []byte, d AlignedDigest) ([]byte, error) {
	if d.Bitmap == nil {
		return buf, fmt.Errorf("transport: aligned digest for router %d has nil bitmap", d.RouterID)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.RouterID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Epoch))
	return putVector(buf, d.Bitmap), nil
}

func decodeAligned(buf []byte) (Message, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: truncated aligned digest", ErrBadFrame)
	}
	d := AlignedDigest{
		RouterID: int(int32(binary.LittleEndian.Uint32(buf[0:]))),
		Epoch:    int(int32(binary.LittleEndian.Uint32(buf[4:]))),
	}
	v, rest, err := getVector(buf[8:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in aligned digest", ErrBadFrame)
	}
	d.Bitmap = v
	return d, nil
}

func appendUnaligned(buf []byte, d UnalignedDigest) ([]byte, error) {
	if d.Digest == nil {
		return buf, fmt.Errorf("transport: unaligned digest message has nil digest")
	}
	// The frame header states one array count for the whole digest, so a
	// ragged Rows slice would serialize more (or fewer) vectors than the
	// decoder reads and misparse every later byte. Validate rectangular
	// geometry up front.
	arrays := 0
	if len(d.Digest.Rows) > 0 {
		arrays = len(d.Digest.Rows[0])
	}
	for g, group := range d.Digest.Rows {
		if len(group) != arrays {
			return buf, fmt.Errorf("transport: ragged unaligned digest from router %d: group %d has %d arrays, group 0 has %d",
				d.Digest.RouterID, g, len(group), arrays)
		}
		for a, row := range group {
			if row == nil {
				return buf, fmt.Errorf("transport: unaligned digest from router %d: nil array (%d,%d)",
					d.Digest.RouterID, g, a)
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Digest.RouterID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Epoch))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Digest.Rows)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(arrays))
	for _, group := range d.Digest.Rows {
		for _, row := range group {
			buf = putVector(buf, row)
		}
	}
	return buf, nil
}

func decodeUnaligned(buf []byte) (Message, error) {
	if len(buf) < 16 {
		return nil, fmt.Errorf("%w: truncated unaligned digest", ErrBadFrame)
	}
	routerID := int(int32(binary.LittleEndian.Uint32(buf[0:])))
	epoch := int(int32(binary.LittleEndian.Uint32(buf[4:])))
	// Geometry hardening: each dimension is bounded on its own and the
	// product is taken in uint64. The decoded counts come off the wire as
	// uint32, so an int conversion is never negative on 64-bit and a product
	// like 0xFFFFFFFF x 0xFFFFFFFF wraps int64 past any guard — a 16-byte
	// hostile frame could otherwise drive the rows allocation below into
	// gigabytes before a single payload byte is checked.
	g64 := uint64(binary.LittleEndian.Uint32(buf[8:]))
	a64 := uint64(binary.LittleEndian.Uint32(buf[12:]))
	if g64 > maxGeometryDim || a64 > maxGeometryDim || g64*a64 > maxGeometryVectors {
		return nil, fmt.Errorf("%w: implausible geometry %dx%d", ErrBadFrame, g64, a64)
	}
	buf = buf[16:]
	// Every vector costs at least its 4-byte length prefix, so a payload
	// shorter than that is lying about its geometry; reject it before
	// allocating any per-group storage.
	if uint64(len(buf)) < g64*a64*4 {
		return nil, fmt.Errorf("%w: geometry %dx%d exceeds %d payload bytes", ErrBadFrame, g64, a64, len(buf))
	}
	groups, arrays := int(g64), int(a64)
	dg := &unaligned.Digest{RouterID: routerID, Rows: make([][]*bitvec.Vector, groups)}
	for g := 0; g < groups; g++ {
		dg.Rows[g] = make([]*bitvec.Vector, arrays)
		for a := 0; a < arrays; a++ {
			v, rest, err := getVector(buf)
			if err != nil {
				return nil, err
			}
			dg.Rows[g][a] = v
			buf = rest
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in unaligned digest", ErrBadFrame)
	}
	return UnalignedDigest{Epoch: epoch, Digest: dg}, nil
}
