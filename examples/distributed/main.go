// Distributed: the full Figure-2 architecture over real TCP sockets.
//
// An analysis center listens on localhost; 32 collector nodes run in their
// own goroutines, each processing two epochs of traffic locally and shipping
// only the per-epoch digests over the wire (through a reconnecting client,
// as a production collector would). The common content appears only in the
// second epoch, and the collectors ship their digests in whatever order the
// scheduler produces — the center's epoch-keyed windows still analyze each
// epoch separately: epoch 1 stays clean, epoch 2 lights up. (cmd/dcsd and
// cmd/dcsnode provide the same roles as standalone binaries for
// multi-process runs.)
//
// The center also journals every ingested digest, and this example makes a
// point of crashing: after all digests arrive, the first center is dropped
// without ever analyzing — as a kill -9 would drop it — and a second center
// recovers both epochs purely from the journal replay. The verdicts printed
// at the end come from the recovered center.
//
// The same crash-recovery works across real processes with the binaries:
//
//	dcsd -listen 127.0.0.1:7460 -journal /tmp/dcsd-journal &
//	dcsnode -center 127.0.0.1:7460 -router 0 -epoch 1 -carry &
//	...                      # more collectors, more epochs
//	kill -9 %1               # crash the center mid-window
//	dcsd -listen 127.0.0.1:7460 -journal /tmp/dcsd-journal
//	# logs: "journal: recovered N digests ..." and the epochs analyze
//	# exactly as they would have without the crash.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/center"
	"dcstream/internal/daemon"
	"dcstream/internal/metrics"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
)

func main() {
	const (
		routers  = 32
		carriers = 12
		epochs   = 2
		segment  = 536
		bits     = 1 << 15
		hashSeed = 31337
	)

	// The analysis center: a daemon.Node — the same assembly dcsd runs —
	// behind a TCP sink, journaling every digest before it reaches the
	// in-RAM window.
	jdir, err := os.MkdirTemp("", "dcs-journal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(jdir)
	ccfg := center.Config{SubsetSize: 512, MaxEpochs: epochs}
	first := daemon.NewNode(ccfg, nil)
	if err := first.OpenJournal(jdir); err != nil {
		log.Fatal(err)
	}
	srv, err := transport.Serve("127.0.0.1:0", first.Handle)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("analysis center listening on %s (journal in %s)\n", srv.Addr(), jdir)

	// Shared content all carrier nodes will observe — in epoch 2 only.
	crng := stats.NewRand(11)
	content := trafficgen.NewContent(crng, 18, segment)

	var wg sync.WaitGroup
	for r := 0; r < routers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := transport.NewReconnectingClient(srv.Addr(), transport.ReconnectConfig{})
			defer client.Close()
			rng := stats.NewRand(uint64(1000 + r))
			for epoch := 1; epoch <= epochs; epoch++ {
				col, err := aligned.NewCollector(aligned.CollectorConfig{Bits: bits, HashSeed: hashSeed})
				if err != nil {
					log.Printf("router %d: %v", r, err)
					return
				}
				bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{
					Packets: 10000, SegmentSize: segment,
				})
				if err != nil {
					log.Printf("router %d: %v", r, err)
					return
				}
				for _, p := range bg {
					col.Update(p)
				}
				if epoch == epochs && r < carriers {
					for _, p := range content.PlantAligned(packet.FlowLabel(r), segment) {
						col.Update(p)
					}
				}
				if err := client.Send(transport.AlignedDigest{
					RouterID: r, Epoch: epoch, Bitmap: col.Digest(),
				}); err != nil {
					log.Printf("router %d send: %v", r, err)
				}
			}
			if left := client.Flush(10 * time.Second); left > 0 {
				log.Printf("router %d: %d digests undelivered", r, left)
			}
		}(r)
	}
	wg.Wait()

	// Every collector flushed before returning; wait for the last frames to
	// clear the server's handler goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if a, _ := first.Center.Pending(); a == routers*epochs {
			break
		}
		if time.Now().After(deadline) {
			a, _ := first.Center.Pending()
			log.Fatalf("timed out waiting for digests (%d/%d)", a, routers*epochs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash. The first center dies here with both epochs still buffered in
	// RAM and nothing analyzed — everything it knew is gone. (The journal's
	// file is deliberately not closed either; recovery must cope with the
	// state a kill -9 leaves behind — every frame written, synced or not. A
	// power cut would keep only what a barrier covered: DESIGN.md "Crash
	// safety".)
	srv.Close()
	first = nil
	fmt.Println("center crashed before analyzing; recovering from the journal...")

	// The second life is a fresh Node over the same directory, logging to
	// stdout what dcsd would log: opening the journal replays both epochs,
	// and the shutdown drain analyzes them and tells the journal they are
	// done so it can purge the frames.
	recovered := daemon.NewNode(ccfg, log.New(os.Stdout, "", 0))
	// One registry over every layer of the recovered deployment — exactly
	// what `dcsd -http` serves at /metrics; here it is dumped to stdout at
	// the end instead.
	reg := metrics.NewRegistry()
	recovered.Center.RegisterMetrics(reg)
	if err := recovered.OpenJournal(jdir); err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	recovered.Journal.RegisterMetrics(reg)
	if _, err := recovered.Drain(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(ground truth: routers 0..%d carried the object, in epoch %d only)\n", carriers-1, epochs)

	snap := recovered.Center.Stats().Snapshot()
	fmt.Printf("recovered-center counters: ingested=%d late=%d dup=%d dropped=%d analyzed=%d\n",
		snap.DigestsIngested, snap.LateDigests, snap.DuplicateDigests, snap.DroppedDigests,
		snap.EpochsAnalyzed)

	fmt.Println("\n--- /metrics exposition of the recovered deployment ---")
	if _, err := reg.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
