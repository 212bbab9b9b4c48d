// Command dcsnode simulates one collector node: it generates an epoch of
// synthetic traffic (optionally carrying a common-content instance), runs
// the configured collection module over it, and ships the digest to a dcsd
// analysis center.
//
//	dcsnode -center 127.0.0.1:7460 -router 3 -mode aligned -carry
//	dcsnode -center 127.0.0.1:7460 -router 3 -mode unaligned -content-seed 9
//
// All nodes in one deployment must share -hash-seed; nodes that pass -carry
// observe one instance of the content derived from -content-seed, so
// several carrying nodes see the *same* content (with different prefixes in
// unaligned mode).
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/traceio"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

func main() {
	var (
		center      = flag.String("center", "127.0.0.1:7460", "analysis center address")
		transportK  = flag.String("transport", "tcp", "digest transport: tcp (reliable, reconnecting) | udp (batched datagrams, fire-and-forget)")
		routerID    = flag.Int("router", 0, "router id (unique per node)")
		mode        = flag.String("mode", "aligned", "aligned | unaligned")
		hashSeed    = flag.Uint64("hash-seed", 1, "deployment-wide hash seed")
		trafficSeed = flag.Uint64("traffic-seed", 0, "background traffic seed (0 = derive from router)")
		contentSeed = flag.Uint64("content-seed", 9, "common-content seed (same across carriers)")
		carry       = flag.Bool("carry", false, "this node observes one content instance")
		background  = flag.Int("background", 2500, "background packets this epoch")
		contentG    = flag.Int("content-packets", 30, "content length in packets")
		bits        = flag.Int("bits", 1<<16, "aligned bitmap width")
		groups      = flag.Int("groups", 8, "unaligned flow-split groups")
		arrays      = flag.Int("arrays", 10, "unaligned arrays per group (offsets k)")
		arrayBits   = flag.Int("array-bits", 1024, "unaligned array width")
		segment     = flag.Int("segment", 536, "segment size in bytes")
		epoch       = flag.Int("epoch", 1, "epoch number stamped on the digest")
		traceFile   = flag.String("trace", "", "replay a dcstrace file instead of generating background")
		flushWait   = flag.Duration("flush-wait", 30*time.Second, "how long to wait for buffered digests to reach the center before exiting")
	)
	flag.Parse()

	tseed := *trafficSeed
	if tseed == 0 {
		tseed = 0xABCD ^ uint64(*routerID)*0x9e3779b97f4a7c15
	}
	rng := stats.NewRand(tseed)
	var bg []packet.Packet
	var err error
	if *traceFile != "" {
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer f.Close()
		if err := traceio.NewReader(f).ForEach(func(p packet.Packet) error {
			bg = append(bg, p)
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		log.Printf("router %d: replaying %d packets from %s", *routerID, len(bg), *traceFile)
	} else {
		bg, err = trafficgen.Background(rng, trafficgen.BackgroundConfig{
			Packets: *background, SegmentSize: *segment,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	crng := stats.NewRand(*contentSeed)
	content := trafficgen.NewContent(crng, *contentG, *segment)
	prefix := make([]byte, *segment)
	crng.Read(prefix)

	var send func(transport.Message) error
	switch *transportK {
	case "tcp":
		// A reconnecting client rides out an analysis center that is down or
		// mid-restart: digests buffer locally and flush when the center
		// returns.
		client := transport.NewReconnectingClient(*center, transport.ReconnectConfig{
			DialTimeout: 5 * time.Second,
		})
		defer func() {
			if left := client.Flush(*flushWait); left > 0 {
				log.Printf("router %d: %d digests undelivered after %v", *routerID, left, *flushWait)
			}
			if n := client.Stats().Reconnects.Load(); n > 0 {
				log.Printf("router %d: reconnected to center %d times", *routerID, n)
			}
			if abandoned, _ := client.Close(); abandoned > 0 {
				log.Printf("router %d: abandoned %d undelivered digests on close", *routerID, abandoned)
			}
			// One transport ledger line at exit so a flaky run is diagnosable
			// from the collector side alone, without scraping the center.
			t := client.Stats()
			log.Printf("router %d: transport: frames out=%d resends=%d dropped=%d reconnects=%d",
				*routerID, t.FramesOut.Load(), t.Resends.Load(), t.DroppedSends.Load(), t.Reconnects.Load())
		}()
		send = client.Send
	case "udp":
		// Fire-and-forget datagrams: no retries, no buffering across center
		// restarts. The center's quorum gate absorbs a lost digest as a
		// degraded window, never a wrong one. The budget is the UDP maximum
		// so any digest that fits a datagram at all goes in one piece.
		uc, err := transport.DialUDP(*center, transport.UDPClientConfig{
			SenderID:         uint32(*routerID) + 1,
			MaxDatagramBytes: 65507,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := uc.Close(); err != nil {
				log.Printf("router %d: udp close: %v", *routerID, err)
			}
			t := uc.Stats()
			log.Printf("router %d: transport: datagrams out=%d frames out=%d dropped=%d",
				*routerID, t.DatagramsOut.Load(), t.FramesOut.Load(), t.DroppedSends.Load())
		}()
		send = uc.Send
	default:
		log.Fatalf("unknown transport %q (want tcp or udp)", *transportK)
	}

	switch *mode {
	case "aligned":
		col, err := aligned.NewCollector(aligned.CollectorConfig{Bits: *bits, HashSeed: *hashSeed})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range bg {
			col.Update(p)
		}
		if *carry {
			for _, p := range content.PlantAligned(packet.FlowLabel(1<<40|uint64(*routerID)), *segment) {
				col.Update(p)
			}
		}
		msg := transport.AlignedDigest{RouterID: *routerID, Epoch: *epoch, Bitmap: col.Digest()}
		if err := send(msg); err != nil {
			log.Fatal(err)
		}
		log.Printf("router %d: aligned digest shipped (%d packets, fill %.3f, carry=%v)",
			*routerID, col.Packets(), col.FillRatio(), *carry)
	case "unaligned":
		col, err := unaligned.NewCollector(unaligned.CollectorConfig{
			Groups: *groups, ArraysPerGroup: *arrays, ArrayBits: *arrayBits,
			SegmentSize: *segment, HashSeed: *hashSeed,
			MinPayload: 40,
			OffsetSeed: tseed ^ 0x0ff5e7,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range bg {
			col.Update(p)
		}
		if *carry {
			l := rng.Intn(*segment)
			flow := packet.FlowLabel(1<<50 | uint64(*routerID))
			for _, p := range packet.Instance(flow, content.Data, prefix, l, *segment) {
				col.Update(p)
			}
		}
		msg := transport.UnalignedDigest{Epoch: *epoch, Digest: col.Digest(*routerID)}
		if err := send(msg); err != nil {
			log.Fatal(err)
		}
		log.Printf("router %d: unaligned digest shipped (%d packets, fill %.3f, carry=%v)",
			*routerID, col.Packets(), col.FillRatio(), *carry)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}
