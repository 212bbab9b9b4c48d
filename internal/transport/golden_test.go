package transport

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/unaligned"
)

// The files under testdata/ pin the DCS1 wire format. They were written by
// the encoders as they stood before the codec was folded into one (Write for
// the three frames, putDatagramHeader + the datagram AppendFrame for the
// datagram; the two frame encoders agreed byte for byte), as hex, sixteen
// bytes a line. A change that moves a byte of them changes what every
// deployed collector, center and journal segment speaks: regenerate them only
// on purpose, and say so.

func goldenAligned() AlignedDigest {
	v := bitvec.New(130) // three words, the last two bits wide
	for _, i := range []int{0, 1, 7, 8, 63, 64, 100, 127, 128, 129} {
		v.Set(i)
	}
	return AlignedDigest{RouterID: 7, Epoch: 3, Bitmap: v}
}

func goldenUnaligned() UnalignedDigest {
	d := &unaligned.Digest{RouterID: 5, Rows: make([][]*bitvec.Vector, 2)}
	for g := range d.Rows {
		d.Rows[g] = make([]*bitvec.Vector, 3)
		for a := range d.Rows[g] {
			v := bitvec.New(64)
			v.Words()[0] = 0x0102040810204080 * uint64(g*3+a+1)
			d.Rows[g][a] = v
		}
	}
	return UnalignedDigest{Epoch: 4, Digest: d}
}

var goldenFrames = []struct {
	file string
	msg  Message
}{
	{"aligned.hex", goldenAligned()},
	{"unaligned.hex", goldenUnaligned()},
	{"report.hex", Report{Payload: []byte("shard 2 report: epoch 9")}},
}

func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.ReplaceAll(string(text), "\n", ""))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return b
}

// TestGoldenFrames checks, from one table, that the encoder and its stream
// adaptor emit exactly the committed bytes and that the decoder and its
// stream adaptor turn those bytes back into the message.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		want := readGolden(t, g.file)

		prefix := []byte("staged")
		got, err := AppendFrame(prefix, g.msg)
		if err != nil {
			t.Fatalf("%s: AppendFrame: %v", g.file, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: AppendFrame emitted\n%x\nwant\n%x", g.file, got[len(prefix):], want)
		}
		var w bytes.Buffer
		if err := Write(&w, g.msg); err != nil {
			t.Fatalf("%s: Write: %v", g.file, err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s: Write emitted\n%x\nwant\n%x", g.file, w.Bytes(), want)
		}

		m, rest, err := ReadFrame(want)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(m, g.msg) {
			t.Errorf("%s: ReadFrame = (%+v, %d bytes left, %v), want %+v", g.file, m, len(rest), err, g.msg)
		}
		m, err = Read(bytes.NewReader(want))
		if err != nil || !reflect.DeepEqual(m, g.msg) {
			t.Errorf("%s: Read = (%+v, %v), want %+v", g.file, m, err, g.msg)
		}
	}
}

// TestGoldenDatagram pins the datagram envelope and that the frames inside it
// are the stream's frames, byte for byte.
func TestGoldenDatagram(t *testing.T) {
	want := readGolden(t, "datagram.hex")
	hdr := DatagramHeader{Sender: 9, Seq: 1, Count: 2}
	msgs := []Message{goldenAligned(), goldenUnaligned()}

	got := make([]byte, udpHeaderLen)
	putDatagramHeader(got, hdr)
	for _, m := range msgs {
		var err error
		if got, err = AppendFrame(got, m); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("datagram encoded as\n%x\nwant\n%x", got, want)
	}
	frames := append(readGolden(t, "aligned.hex"), readGolden(t, "unaligned.hex")...)
	if !bytes.Equal(want[udpHeaderLen:], frames) {
		t.Error("the datagram's frames are not the stream frames, concatenated")
	}

	if !prefilterDatagram(want) {
		t.Fatal("prefilter refused the golden datagram")
	}
	var decoded []Message
	h, n, err := decodeDatagram(want, func(m Message) { decoded = append(decoded, m) })
	if err != nil || h != hdr || n != len(msgs) || !reflect.DeepEqual(decoded, msgs) {
		t.Errorf("decodeDatagram = (%+v, %d frames, %v) carrying %+v, want %+v carrying %+v", h, n, err, decoded, hdr, msgs)
	}
}
