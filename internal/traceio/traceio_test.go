package traceio

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
)

func TestRoundTrip(t *testing.T) {
	rng := stats.NewRand(1)
	pkts, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
		Packets: 200, SegmentSize: 64, Flows: 30, ZipfS: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range pkts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 200 {
		t.Fatalf("writer count %d", w.Count())
	}

	r := NewReader(&buf)
	for i, want := range pkts {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Flow != want.Flow || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if r.Count() != 200 {
		t.Fatalf("reader count %d", r.Count())
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(flow uint64, payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		in := packet.Packet{Flow: packet.FlowLabel(flow), Payload: payload}
		if w.Write(in) != nil || w.Flush() != nil {
			return false
		}
		out, err := NewReader(&buf).Read()
		return err == nil && out.Flow == in.Flow && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsCorrupt(t *testing.T) {
	// Truncated header.
	r := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	if _, err := r.Read(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header: %v", err)
	}
	// Oversized length field: a 12-byte record claiming more than maxPayload
	// is refused and the claim never allocated — held the way transport's
	// hostile-frame table holds the wire's bounds. The reader's own 4 KiB
	// buffer fits under the 64 KiB ceiling; the smallest hostile claim
	// (1 MiB + 1) does not. TotalAlloc is process-wide: no t.Parallel here.
	for _, length := range []uint32{0xFFFFFFFF, maxPayload + 1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewReader(bytes.NewReader(hostileTraceRecord(1, length, 0))).Read()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("oversize %#x: %v", length, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("oversize %#x: allocated %d bytes, ceiling %d", length, got, 64<<10)
		}
	}
	// Truncated payload.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(packet.Packet{Flow: 1, Payload: make([]byte, 100)})
	w.Flush()
	if _, err := NewReader(bytes.NewReader(buf.Bytes()[:50])).Read(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: %v", err)
	}
}

func TestWriterRejectsOversizedPayload(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	err := w.Write(packet.Packet{Payload: make([]byte, maxPayload+1)})
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
	// Writer is latched after an error.
	if w.Write(packet.Packet{Payload: []byte("x")}) == nil {
		t.Fatal("writer not latched after error")
	}
}

func TestForEach(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		w.Write(packet.Packet{Flow: packet.FlowLabel(i), Payload: []byte{byte(i)}})
	}
	w.Flush()
	var flows []packet.FlowLabel
	err := NewReader(&buf).ForEach(func(p packet.Packet) error {
		flows = append(flows, p.Flow)
		return nil
	})
	if err != nil || len(flows) != 10 || flows[9] != 9 {
		t.Fatalf("ForEach: err=%v flows=%v", err, flows)
	}
	// Early stop on callback error.
	buf.Reset()
	w = NewWriter(&buf)
	for i := 0; i < 10; i++ {
		w.Write(packet.Packet{Flow: packet.FlowLabel(i), Payload: []byte{byte(i)}})
	}
	w.Flush()
	stop := errors.New("stop")
	count := 0
	err = NewReader(&buf).ForEach(func(p packet.Packet) error {
		count++
		if count == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || count != 3 {
		t.Fatalf("early stop: err=%v count=%d", err, count)
	}
}

// TestTraceDrivesCollector closes the loop: a trace with planted content
// replayed into a collector must register the content's bits, identically
// to feeding the packets directly.
func TestTraceDrivesCollector(t *testing.T) {
	rng := stats.NewRand(2)
	content := trafficgen.NewContent(rng, 10, 64)
	bg, _ := trafficgen.Background(rng, trafficgen.BackgroundConfig{Packets: 100, SegmentSize: 64})
	all := trafficgen.Mix(rng, bg, content.PlantAligned(5, 64))

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range all {
		w.Write(p)
	}
	w.Flush()

	// Two identical collectors: one fed directly, one from the trace.
	direct, err := aligned.NewCollector(aligned.CollectorConfig{Bits: 1 << 12, HashSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := aligned.NewCollector(aligned.CollectorConfig{Bits: 1 << 12, HashSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range all {
		direct.Update(p)
	}
	if err := NewReader(&buf).ForEach(func(p packet.Packet) error {
		replayed.Update(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bitvec.Equal(direct.Digest(), replayed.Digest()) {
		t.Fatal("trace replay diverged from direct feed")
	}
}
