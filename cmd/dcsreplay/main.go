// Command dcsreplay runs the full DCS analysis offline over recorded
// traces: each trace file is one router's epoch of traffic (the dcstrace
// format), replayed through the selected collection module; the merged
// digests then go through the analysis center.
//
//	dcstrace -packets 20000 -out r0.bin -seed 1
//	dcstrace -packets 20000 -out r1.bin -seed 2 -plant 1
//	dcsreplay -mode aligned r0.bin r1.bin r2.bin ...
//
// This is the workflow of the paper's §V-B.4 stress test: trace in,
// detection verdict out.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dcstream/internal/aligned"
	"dcstream/internal/center"
	"dcstream/internal/packet"
	"dcstream/internal/traceio"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

func main() {
	var (
		mode      = flag.String("mode", "aligned", "aligned | unaligned")
		hashSeed  = flag.Uint64("hash-seed", 1, "deployment-wide hash seed")
		bits      = flag.Int("bits", 1<<16, "aligned bitmap width")
		subset    = flag.Int("subset", 512, "aligned detector subset size n'")
		groups    = flag.Int("groups", 8, "unaligned flow-split groups")
		arrays    = flag.Int("arrays", 10, "unaligned arrays per group")
		arrayBits = flag.Int("array-bits", 1024, "unaligned array width")
		segment   = flag.Int("segment", 536, "segment size in bytes")
		minPay    = flag.Int("min-payload", 40, "unaligned minimum payload")
		threshold = flag.Int("er-threshold", 12, "unaligned ER component threshold")
		beta      = flag.Int("beta", 8, "unaligned core size")
		dExp      = flag.Int("d", 2, "unaligned expansion degree")
	)
	flag.Parse()
	if err := center.RefuseZeroFlags(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "dcsreplay:", err)
		os.Exit(2)
	}
	traces := flag.Args()
	if len(traces) < 2 {
		fmt.Fprintln(os.Stderr, "usage: dcsreplay [flags] trace0.bin trace1.bin [...]")
		os.Exit(2)
	}

	cfg := center.Config{
		SubsetSize:         *subset,
		ComponentThreshold: *threshold,
		Beta:               *beta,
		D:                  *dExp,
		// Parallelism zero: every analysis stage sizes itself to GOMAXPROCS.
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dcsreplay:", err)
		os.Exit(2)
	}
	c := center.New(cfg)

	for router, path := range traces {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		var feed func(packet.Packet)
		var finish func()
		switch *mode {
		case "aligned":
			col, err := aligned.NewCollector(aligned.CollectorConfig{Bits: *bits, HashSeed: *hashSeed})
			if err != nil {
				log.Fatal(err)
			}
			feed = col.Update
			finish = func() {
				c.Ingest(transport.AlignedDigest{RouterID: router, Epoch: 1, Bitmap: col.Digest()})
				log.Printf("router %d (%s): %d packets, fill %.3f", router, path, col.Packets(), col.FillRatio())
			}
		case "unaligned":
			col, err := unaligned.NewCollector(unaligned.CollectorConfig{
				Groups: *groups, ArraysPerGroup: *arrays, ArrayBits: *arrayBits,
				SegmentSize: *segment, MinPayload: *minPay,
				HashSeed: *hashSeed, OffsetSeed: uint64(router+1) * 0x9e3779b97f4a7c15,
			})
			if err != nil {
				log.Fatal(err)
			}
			feed = col.Update
			finish = func() {
				c.Ingest(transport.UnalignedDigest{Epoch: 1, Digest: col.Digest(router)})
				log.Printf("router %d (%s): %d packets, fill %.3f", router, path, col.Packets(), col.FillRatio())
			}
		default:
			log.Fatalf("unknown mode %q", *mode)
		}
		if err := traceio.NewReader(f).ForEach(func(p packet.Packet) error {
			feed(p)
			return nil
		}); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		f.Close()
		finish()
	}

	// Every ingest above stamped epoch 1; analyze exactly that window.
	rep, err := c.Analyze(1)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case rep.Aligned != nil && rep.Aligned.Detection.Found:
		fmt.Printf("PATTERN: %d routers share %d common packets: routers %v\n",
			len(rep.Aligned.RouterIDs), len(rep.Aligned.Detection.Cols), rep.Aligned.RouterIDs)
	case rep.Unaligned != nil && rep.Unaligned.ER.PatternDetected:
		fmt.Printf("PATTERN: largest component %d >= %d; routers %v\n",
			rep.Unaligned.ER.LargestComponent, rep.Unaligned.ER.Threshold, rep.Unaligned.Routers)
	default:
		fmt.Println("no common content detected")
	}
}
