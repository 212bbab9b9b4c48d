package daemon

import (
	"fmt"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/transport"
)

// BenchmarkNodeEpoch is one small-udp epoch through a Node, sockets aside:
// 256 routers' 512-bit aligned digests, a quarter full, handed over in
// 14-frame batches — what one 1400-byte datagram carries — to a node with a
// journal on disk, then the Wake that reports the completed epoch's span. It
// runs at -slide 1, where the span is the epoch alone, and at -slide 3, where
// each report stitches three epochs and retires the oldest, so the two widths'
// costs and allocations per epoch show side by side. Run it with -benchmem:
// the allocations per epoch are where per-digest garbage on the ingest path
// shows.
func BenchmarkNodeEpoch(b *testing.B) {
	for _, slide := range []int{1, 3} {
		b.Run(fmt.Sprintf("slide=%d", slide), func(b *testing.B) { benchmarkNodeEpoch(b, slide) })
	}
}

func benchmarkNodeEpoch(b *testing.B, slide int) {
	const routers, bits, batch = 256, 512, 14
	n := NewNode(center.Config{SubsetSize: 32, WindowSlide: slide}, nil)
	if err := n.OpenJournal(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	seed := uint64(1)
	word := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	bitmaps := make([]*bitvec.Vector, routers)
	for r := range bitmaps {
		v, w := bitvec.New(bits), bitvec.New(bits)
		v.FillRandomHalf(word)
		w.FillRandomHalf(word)
		v.And(v, w)
		bitmaps[r] = v
	}
	// Every epoch's messages are built up front, so the timed loop allocates
	// only what the node does.
	const warm = 2 // epoch 1 expects nobody and closes when epoch 2 supersedes it
	epochs := make([][]transport.Message, warm+b.N)
	for i := range epochs {
		epochs[i] = make([]transport.Message, routers)
		for r := range epochs[i] {
			epochs[i][r] = transport.AlignedDigest{RouterID: r, Epoch: i + 1, Bitmap: bitmaps[r]}
		}
	}
	run := func(msgs []transport.Message) []center.WindowReport {
		for i := 0; i < len(msgs); i += batch {
			n.HandleBatch(msgs[i:min(i+batch, len(msgs))], from)
		}
		reps, err := n.Wake()
		if err != nil {
			b.Fatal(err)
		}
		return reps
	}
	for _, msgs := range epochs[:warm] {
		run(msgs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, msgs := range epochs[warm:] {
		if reps := run(msgs); len(reps) != 1 {
			b.Fatalf("an epoch's Wake finished %d reports, want its own span", len(reps))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*routers), "ns/digest")
}
