// Package packet models the slice of the network stack the DCS algorithms
// care about: application-layer payloads carried in fixed-size segments,
// grouped into flows. Headers are abstracted to a 64-bit flow label — the
// collection modules only ever hash the label and read payload bytes, so
// nothing more is needed to reproduce the paper's behaviour.
package packet

import "fmt"

// FlowLabel identifies a flow (the 5-tuple in a real deployment). The
// unaligned collector hashes it to split traffic into groups so that all
// packets of one flow land in the same group of arrays.
type FlowLabel uint64

// Packet is one application-layer segment observed on a link. Payload holds
// the application data after network/transport headers are stripped (the
// paper's line 5, "pkt.content").
type Packet struct {
	Flow    FlowLabel
	Payload []byte
}

// Packetize splits data into packets of segSize payload bytes each; the
// final packet may be shorter. All packets carry the given flow label.
// It panics on non-positive segSize; empty data yields no packets.
func Packetize(flow FlowLabel, data []byte, segSize int) []Packet {
	if segSize <= 0 {
		panic(fmt.Sprintf("packet: invalid segment size %d", segSize))
	}
	n := (len(data) + segSize - 1) / segSize
	pkts := make([]Packet, 0, n)
	for off := 0; off < len(data); off += segSize {
		end := off + segSize
		if end > len(data) {
			end = len(data)
		}
		pkts = append(pkts, Packet{Flow: flow, Payload: data[off:end]})
	}
	return pkts
}

// Instance materializes one transmission instance of a piece of content: a
// prefix of prefixLen arbitrary bytes (the variable application-layer header
// of the unaligned case — SMTP headers, per-victim fields, …) followed by
// the content itself, packetized at segSize. prefix supplies the prefix
// bytes and must have length >= prefixLen.
//
// With prefixLen == 0 this is the aligned case: every instance of the same
// content packetizes identically.
func Instance(flow FlowLabel, content, prefix []byte, prefixLen, segSize int) []Packet {
	if prefixLen < 0 || prefixLen > len(prefix) {
		panic(fmt.Sprintf("packet: prefixLen %d out of range [0,%d]", prefixLen, len(prefix)))
	}
	obj := make([]byte, 0, prefixLen+len(content))
	obj = append(obj, prefix[:prefixLen]...)
	obj = append(obj, content...)
	return Packetize(flow, obj, segSize)
}
