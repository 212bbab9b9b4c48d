package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Datagram layout (little-endian):
//
//	magic    uint32  'D','C','S','U'
//	version  uint8   1
//	flags    uint8   reserved, must be zero
//	count    uint16  frames in this datagram (>= 1)
//	sender   uint32  collector-chosen sender id
//	seq      uint64  per-sender datagram sequence number, starting at 1
//	frames   count x frame (byte-identical to the TCP stream frames,
//	         including the per-frame CRC-32C)
//
// Batching many digest frames into one datagram amortizes the per-packet
// syscall and header cost that dominates the TCP path at high fan-in; the
// per-frame CRC is reused unchanged so a bit flipped in flight still fails
// loudly per digest instead of perturbing correlation statistics. The
// sequence number lets the receiver estimate loss and spot reordered or
// duplicated datagrams; duplicated frames are delivered anyway — the
// center's duplicate accounting already resolves them, and the quorum gate
// already analyzes degraded-never-wrong when loss leaves routers absent.
const (
	udpMagic     = 0x55534344 // "DCSU"
	udpVersion   = 1
	udpHeaderLen = 20

	// maxDatagram is the UDP payload ceiling (65535 minus IP and UDP
	// headers); the codec never emits, and the prefilter never accepts,
	// anything larger.
	maxDatagram = 65507

	// maxDatagramFrames bounds the declared frame count. The true ceiling
	// is maxDatagram/headerLen (a frame costs at least its 13-byte header),
	// so anything above this is garbage the prefilter rejects for free.
	maxDatagramFrames = maxDatagram / headerLen
)

// DatagramHeader is the decoded per-datagram envelope.
type DatagramHeader struct {
	// Sender identifies the sending collector; the receiver keys its
	// sequence accounting by it. Independent of the RouterID inside each
	// digest (one sender may forward for many routers).
	Sender uint32
	// Seq is the sender's datagram sequence number, starting at 1. Gaps
	// mean loss; repeats mean duplication or reordering.
	Seq uint64
	// Count is how many frames the datagram declares.
	Count int
}

// putDatagramHeader writes h into the first udpHeaderLen bytes of buf.
func putDatagramHeader(buf []byte, h DatagramHeader) {
	binary.LittleEndian.PutUint32(buf[0:], udpMagic)
	buf[4] = udpVersion
	buf[5] = 0
	binary.LittleEndian.PutUint16(buf[6:], uint16(h.Count))
	binary.LittleEndian.PutUint32(buf[8:], h.Sender)
	binary.LittleEndian.PutUint64(buf[12:], h.Seq)
}

// prefilterDatagram is the cheap acceptance gate: magic, version, declared
// frame count, and minimum length are checked with nothing but index
// arithmetic, so port scans and stray traffic are rejected before a single
// byte is allocated or hashed.
func prefilterDatagram(buf []byte) bool {
	if len(buf) < udpHeaderLen || len(buf) > maxDatagram {
		return false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != udpMagic || buf[4] != udpVersion || buf[5] != 0 {
		return false
	}
	count := int(binary.LittleEndian.Uint16(buf[6:]))
	if count == 0 || count > maxDatagramFrames {
		return false
	}
	// Every declared frame costs at least its header; a shorter datagram is
	// lying about its count.
	return len(buf)-udpHeaderLen >= count*headerLen
}

// parseDatagramHeader decodes the envelope of a datagram that already
// passed prefilterDatagram.
func parseDatagramHeader(buf []byte) DatagramHeader {
	return DatagramHeader{
		Sender: binary.LittleEndian.Uint32(buf[8:]),
		Seq:    binary.LittleEndian.Uint64(buf[12:]),
		Count:  int(binary.LittleEndian.Uint16(buf[6:])),
	}
}

// AppendFrame encodes m as one frame appended to buf — the in-memory
// counterpart of Write, byte for byte, used to pack several frames into one
// datagram and by the journal to hand a frame to its segment in one write.
// Malformed digests are rejected before any bytes are appended. Aligned
// digests (the per-packet hot path: one tiny frame per digest, hundreds per
// datagram) are serialized straight into buf with no intermediate payload
// allocation; the header is back-patched once the payload length and CRC are
// known.
func AppendFrame(buf []byte, m Message) ([]byte, error) {
	start := len(buf)
	var hdr [headerLen]byte
	switch d := m.(type) {
	case AlignedDigest:
		if d.Bitmap == nil {
			return buf, fmt.Errorf("transport: aligned digest for router %d has nil bitmap", d.RouterID)
		}
		var fixed [8]byte
		binary.LittleEndian.PutUint32(fixed[0:], uint32(d.RouterID))
		binary.LittleEndian.PutUint32(fixed[4:], uint32(d.Epoch))
		buf = append(buf, hdr[:]...)
		buf = append(buf, fixed[:]...)
		buf = putVector(buf, d.Bitmap)
		payload := buf[start+headerLen:]
		binary.LittleEndian.PutUint32(buf[start:], magic)
		buf[start+4] = typeAligned
		binary.LittleEndian.PutUint32(buf[start+5:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[start+9:], crc32.Checksum(payload, castagnoli))
		return buf, nil
	case UnalignedDigest:
		payload, err := encodeUnaligned(d)
		if err != nil {
			return buf, err
		}
		binary.LittleEndian.PutUint32(hdr[0:], magic)
		hdr[4] = typeUnaligned
		binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[9:], crc32.Checksum(payload, castagnoli))
		buf = append(buf, hdr[:]...)
		return append(buf, payload...), nil
	case Report:
		if len(d.Payload) > maxFrame {
			return buf, fmt.Errorf("transport: report payload of %d bytes exceeds the %d-byte frame limit", len(d.Payload), maxFrame)
		}
		binary.LittleEndian.PutUint32(hdr[0:], magic)
		hdr[4] = typeReport
		binary.LittleEndian.PutUint32(hdr[5:], uint32(len(d.Payload)))
		binary.LittleEndian.PutUint32(hdr[9:], crc32.Checksum(d.Payload, castagnoli))
		buf = append(buf, hdr[:]...)
		return append(buf, d.Payload...), nil
	default:
		return buf, fmt.Errorf("transport: unknown message type %T", m)
	}
}

// frameWireLen is how many datagram bytes m will occupy once framed, or an
// error for digests Write itself would reject.
func frameWireLen(m Message) (int, error) {
	switch d := m.(type) {
	case AlignedDigest:
		if d.Bitmap == nil {
			return 0, fmt.Errorf("transport: aligned digest for router %d has nil bitmap", d.RouterID)
		}
		return headerLen + 8 + 4 + len(d.Bitmap.Words())*8, nil
	case UnalignedDigest:
		if d.Digest == nil {
			return 0, fmt.Errorf("transport: unaligned digest message has nil digest")
		}
		n := headerLen + 16
		for _, group := range d.Digest.Rows {
			for _, row := range group {
				if row == nil {
					return 0, fmt.Errorf("transport: unaligned digest from router %d has nil array", d.Digest.RouterID)
				}
				n += 4 + len(row.Words())*8
			}
		}
		return n, nil
	case Report:
		return headerLen + len(d.Payload), nil
	default:
		return 0, fmt.Errorf("transport: unknown message type %T", m)
	}
}

// readFrame decodes one frame at the start of buf and returns the message
// and the remaining bytes — the in-memory counterpart of Read for frames
// already sitting in a received datagram.
func readFrame(buf []byte) (Message, []byte, error) {
	if len(buf) < headerLen {
		return nil, nil, fmt.Errorf("%w: truncated frame header", ErrBadFrame)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	length := binary.LittleEndian.Uint32(buf[5:])
	if length > maxFrame {
		return nil, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, length)
	}
	if uint32(len(buf)-headerLen) < length {
		return nil, nil, fmt.Errorf("%w: truncated frame payload", ErrBadFrame)
	}
	payload := buf[headerLen : headerLen+int(length)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(buf[9:]); got != want {
		return nil, nil, fmt.Errorf("%w: payload checksum %08x, header says %08x", ErrBadFrame, got, want)
	}
	rest := buf[headerLen+int(length):]
	switch buf[4] {
	case typeAligned:
		m, err := decodeAligned(payload)
		return m, rest, err
	case typeUnaligned:
		m, err := decodeUnaligned(payload)
		return m, rest, err
	case typeReport:
		// The payload aliases the receive buffer, which the read loop reuses
		// for the next datagram; a report is retained past this frame walk, so
		// it must own its bytes.
		return Report{Payload: append([]byte(nil), payload...)}, rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, buf[4])
	}
}

// decodeDatagram walks a prefiltered datagram's frames, calling emit for
// each decoded message in order. It returns the envelope, how many frames
// decoded cleanly, and the first frame error (frames before the error were
// already emitted — good digests are never discarded because a later frame
// in the same datagram was corrupt; frames after it are unreachable because
// the stream offset is lost).
func decodeDatagram(buf []byte, emit func(Message)) (DatagramHeader, int, error) {
	h := parseDatagramHeader(buf)
	rest := buf[udpHeaderLen:]
	for i := 0; i < h.Count; i++ {
		m, r, err := readFrame(rest)
		if err != nil {
			return h, i, fmt.Errorf("frame %d/%d: %w", i+1, h.Count, err)
		}
		emit(m)
		rest = r
	}
	if len(rest) != 0 {
		return h, h.Count, fmt.Errorf("%w: %d trailing bytes after %d frames", ErrBadFrame, len(rest), h.Count)
	}
	return h, h.Count, nil
}
