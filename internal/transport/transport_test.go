package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dcstream/internal/bitvec"
	"dcstream/internal/stats"
	"dcstream/internal/unaligned"
)

func randomVector(seed uint64, bits int) *bitvec.Vector {
	rng := stats.NewRand(seed)
	v := bitvec.New(bits)
	v.FillRandomHalf(rng.Uint64)
	return v
}

func TestAlignedRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 63, 64, 65, 1000, 1 << 17} {
		d := AlignedDigest{RouterID: 42, Epoch: 7, Bitmap: randomVector(uint64(bits), bits)}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		m, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := m.(AlignedDigest)
		if !ok {
			t.Fatalf("decoded %T", m)
		}
		if got.RouterID != 42 || got.Epoch != 7 || !bitvec.Equal(got.Bitmap, d.Bitmap) {
			t.Fatalf("round trip mismatch at %d bits", bits)
		}
	}
}

func TestUnalignedRoundTrip(t *testing.T) {
	dg := &unaligned.Digest{RouterID: 3, Rows: make([][]*bitvec.Vector, 4)}
	seed := uint64(0)
	for g := range dg.Rows {
		dg.Rows[g] = make([]*bitvec.Vector, 10)
		for a := range dg.Rows[g] {
			seed++
			dg.Rows[g][a] = randomVector(seed, 1024)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, UnalignedDigest{Epoch: 11, Digest: dg}); err != nil {
		t.Fatal(err)
	}
	m, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(UnalignedDigest)
	if got.Epoch != 11 || got.Digest.RouterID != 3 {
		t.Fatal("header mismatch")
	}
	for g := range dg.Rows {
		for a := range dg.Rows[g] {
			if !bitvec.Equal(got.Digest.Rows[g][a], dg.Rows[g][a]) {
				t.Fatalf("row (%d,%d) mismatch", g, a)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	// Bad magic.
	if _, err := Read(bytes.NewReader([]byte{9, 9, 9, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: %v", err)
	}
	// Oversized frame.
	var buf bytes.Buffer
	Write(&buf, AlignedDigest{Bitmap: bitvec.New(8)})
	b := buf.Bytes()
	b[5], b[6], b[7], b[8] = 0xff, 0xff, 0xff, 0x7f // length field
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversize: %v", err)
	}
	// Unknown type.
	buf.Reset()
	Write(&buf, AlignedDigest{Bitmap: bitvec.New(8)})
	b = buf.Bytes()
	b[4] = 99
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown type: %v", err)
	}
	// Truncated payload.
	buf.Reset()
	Write(&buf, AlignedDigest{Bitmap: randomVector(1, 256)})
	b = buf.Bytes()[:20]
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Tail bits set beyond vector length must be rejected: corrupting the
	// payload now trips the checksum first, which is also ErrBadFrame.
	buf.Reset()
	Write(&buf, AlignedDigest{Bitmap: bitvec.New(4)})
	b = buf.Bytes()
	b[len(b)-1] = 0xf0 // bits 4..7 of a 4-bit vector
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("tail bits: %v", err)
	}
}

func TestReadDetectsBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, AlignedDigest{RouterID: 1, Bitmap: randomVector(5, 4096)}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0x10 // one flipped bit mid-payload
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bit flip not caught: %v", err)
	}
}

func TestTailBitsRejectedEvenWithValidChecksum(t *testing.T) {
	// A peer that *deliberately* sends tail garbage with a matching
	// checksum must still be rejected by the vector decoder.
	frame, err := AppendFrame(nil, AlignedDigest{RouterID: 1, Bitmap: bitvec.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] = 0xf0
	rewriteChecksum(frame)
	if _, err := Read(bytes.NewReader(frame)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("valid-checksum tail garbage accepted: %v", err)
	}
}

func TestReadCleanEOF(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestMultipleFramesOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := Write(&buf, AlignedDigest{RouterID: i, Bitmap: randomVector(uint64(i), 128)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.(AlignedDigest).RouterID != i {
			t.Fatalf("frame %d out of order", i)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	var mu sync.Mutex
	received := map[int]*bitvec.Vector{}
	srv, err := Serve("127.0.0.1:0", func(m Message, _ net.Addr) {
		d := m.(AlignedDigest)
		mu.Lock()
		received[d.RouterID] = d.Bitmap
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const routers = 8
	sent := make([]*bitvec.Vector, routers)
	var wg sync.WaitGroup
	for r := 0; r < routers; r++ {
		sent[r] = randomVector(uint64(100+r), 4096)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), time.Second)
			if err != nil {
				t.Errorf("router %d dial: %v", r, err)
				return
			}
			defer c.Close()
			if err := c.Send(AlignedDigest{RouterID: r, Epoch: 1, Bitmap: sent[r]}); err != nil {
				t.Errorf("router %d send: %v", r, err)
			}
		}(r)
	}
	wg.Wait()

	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n == routers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d digests arrived", n, routers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for r := 0; r < routers; r++ {
		if !bitvec.Equal(received[r], sent[r]) {
			t.Fatalf("router %d digest corrupted in flight", r)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(Message, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := Dial("127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}
