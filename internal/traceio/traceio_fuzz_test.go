package traceio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"dcstream/internal/packet"
)

// hostileTraceRecord builds a 12-byte record header claiming length payload
// bytes, followed by however much of it the attacker bothered to send: the
// length field is file-controlled and the reader must bound it before
// allocating.
func hostileTraceRecord(flow uint64, length uint32, supplied int) []byte {
	buf := make([]byte, 12+supplied)
	binary.LittleEndian.PutUint64(buf[0:], flow)
	binary.LittleEndian.PutUint32(buf[8:], length)
	return buf
}

// FuzzTraceRead feeds arbitrary bytes through the trace replay pipeline
// cmd/dcsreplay runs per file. Invariants: no panic and no unbounded
// allocation on any input (the maxPayload guard is this decoder's one
// bound), a corrupt record surfaces as ErrCorrupt rather than a
// silent short trace, and every record read back survives a write/read
// round-trip bit-identically.
func FuzzTraceRead(f *testing.F) {
	// A well-formed two-record trace.
	var good bytes.Buffer
	w := NewWriter(&good)
	for _, p := range []packet.Packet{
		{Flow: 7, Payload: []byte("alpha")},
		{Flow: 1 << 40, Payload: bytes.Repeat([]byte{0xAB}, 256)},
	} {
		if err := w.Write(p); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	// Hostile geometry: length fields the reader must refuse before
	// allocating — the all-ones claim, just past the cap, and the cap
	// itself with a truncated body.
	f.Add(hostileTraceRecord(1, 0xFFFFFFFF, 0))
	f.Add(hostileTraceRecord(2, maxPayload+1, 64))
	f.Add(hostileTraceRecord(3, maxPayload, 16))
	// Truncated header and empty input (clean EOF).
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		records := 0
		for {
			p, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("non-corrupt error from in-memory trace: %v", err)
				}
				break
			}
			records++
			if len(p.Payload) > maxPayload {
				t.Fatalf("record %d: reader returned %d payload bytes past the cap", records, len(p.Payload))
			}
			// Round-trip: what was read must re-serialize to bytes that
			// read back identically.
			var rt bytes.Buffer
			rw := NewWriter(&rt)
			if err := rw.Write(p); err != nil {
				t.Fatalf("record %d fails re-write: %v", records, err)
			}
			if err := rw.Flush(); err != nil {
				t.Fatal(err)
			}
			p2, err := NewReader(bytes.NewReader(rt.Bytes())).Read()
			if err != nil {
				t.Fatalf("record %d fails re-read: %v", records, err)
			}
			if p2.Flow != p.Flow || !bytes.Equal(p2.Payload, p.Payload) {
				t.Fatalf("record %d round-trip mismatch", records)
			}
		}
		if r.Count() != records {
			t.Fatalf("reader counted %d records, caller saw %d", r.Count(), records)
		}
	})
}
