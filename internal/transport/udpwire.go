package transport

import (
	"encoding/binary"
	"fmt"
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
		m, r, err := ReadFrame(rest)
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
