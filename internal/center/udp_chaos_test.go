package center

import (
	"net"
	"sync"
	"testing"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/faultinject"
	"dcstream/internal/simulate"
	"dcstream/internal/transport"
)

// TestChaosUDPLossDegradedNeverWrong is the UDP acceptance scenario: a
// twelve-router fleet ships one datagram per digest through a proxy that
// drops over a fifth of them and duplicates, reorders, truncates, and
// bit-flips others. The required end state is degraded-never-wrong:
//
//   - every digest that reaches the center decodes to exactly the bitmap the
//     router sent (per-frame CRC turns corruption into loss, never into a
//     perturbed digest),
//   - the content epoch closes Degraded with an honest sub-fleet row count,
//   - the detection implicates only true carriers whose digests arrived —
//     loss shrinks the verdict, it never invents routers.
func TestChaosUDPLossDegradedNeverWrong(t *testing.T) {
	const fleet = 12
	base := simulate.AlignedScenario{
		Seed:              11,
		Routers:           fleet,
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 7},
		BackgroundPackets: 600,
		SegmentSize:       536,
	}
	carriers := []int{0, 1, 2, 4, 5, 6, 8, 10}
	isCarrier := map[int]bool{}
	for _, r := range carriers {
		isCarrier[r] = true
	}
	epochs, err := simulate.RunAlignedEpochs(base, []simulate.EpochSpec{
		{Epoch: 1},
		{Epoch: 2, Carriers: carriers, ContentPackets: 24},
		{Epoch: 3},
		{Epoch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The handler records what was actually delivered (before Ingest eats
	// it) so the wire's honesty can be checked against the originals.
	c := New(Config{SubsetSize: 256, MinRouters: fleet, MaxWait: 2, MaxEpochs: 8})
	var mu sync.Mutex
	delivered := map[[2]int]*bitvec.Vector{} // (router, epoch) -> bitmap
	srv, err := transport.ServeUDPConfig("127.0.0.1:0", func(m transport.Message, _ net.Addr) {
		if d, ok := m.(transport.AlignedDigest); ok {
			mu.Lock()
			delivered[[2]int{d.RouterID, d.Epoch}] = d.Bitmap
			mu.Unlock()
		}
		c.Ingest(m)
	}, transport.UDPServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy, err := faultinject.NewUDP(srv.Addr(), faultinject.Config{
		Seed:      4,
		Drop:      0.3,
		Duplicate: 0.15,
		Reorder:   0.2,
		Truncate:  0.08,
		BitFlip:   0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// One batching client per router, each with its own sender id and an
	// explicit flush per digest: exactly one datagram per digest, so the
	// proxy's per-datagram fault schedule is a per-digest fault schedule.
	clients := make([]*transport.BatchingUDPClient, fleet)
	for r := 0; r < fleet; r++ {
		clients[r], err = transport.DialUDP(proxy.Addr(), transport.UDPClientConfig{
			SenderID:      uint32(r + 1),
			FlushInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer clients[r].Close()
	}
	sent := int64(0)
	for _, e := range []int{1, 2, 3, 4} {
		for r, m := range epochs[e].DigestMessages(e) {
			if err := clients[r].Send(m); err != nil {
				t.Fatal(err)
			}
			if err := clients[r].Flush(); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}

	// Quiesce: the proxy has handled every sent datagram, and the server
	// has classified (accepted or rejected) everything the proxy emitted.
	deadline := time.Now().Add(10 * time.Second)
	settled := func() bool {
		if proxy.Received() != sent {
			return false
		}
		s := srv.Stats()
		return s.DatagramsIn.Load()+s.DatagramsRejected.Load() == proxy.Forwarded()
	}
	for !settled() {
		if time.Now().After(deadline) {
			s := srv.Stats()
			t.Fatalf("pipeline never quiesced: proxy received %d/%d, forwarded %d, server accepted %d and rejected %d datagrams",
				proxy.Received(), sent, proxy.Forwarded(), s.DatagramsIn.Load(), s.DatagramsRejected.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The chaos must have materialized: this is a loss test, not a smoke
	// test. The acceptance bar is at least 20% of datagrams gone.
	if frac := float64(proxy.Dropped()) / float64(sent); frac < 0.20 {
		t.Fatalf("only %.0f%% of datagrams dropped; the scenario under-stresses the path", frac*100)
	}

	// Wire honesty: everything delivered is bit-identical to what its
	// router sent. Truncation and bit flips may only shrink delivery
	// (BadFrames), never alter a digest.
	mu.Lock()
	for key, got := range delivered {
		want := epochs[key[1]].DigestMessages(key[1])[key[0]]
		if !bitvec.Equal(got, want.Bitmap) {
			t.Fatalf("router %d epoch %d digest corrupted in flight", key[0], key[1])
		}
	}
	arrived2 := map[int]bool{}
	for key := range delivered {
		if key[1] == 2 {
			arrived2[key[0]] = true
		}
	}
	mu.Unlock()
	if len(arrived2) == fleet {
		t.Fatalf("all %d epoch-2 digests survived 30%% drop — seed no longer exercises loss", fleet)
	}

	// The content epoch closes under operator override (its quorum hold is
	// beside the point here) and must be flagged degraded with an honest
	// row count: duplicates collapsed, missing routers missing. Spans close
	// oldest first, so epoch 1 goes ahead of it.
	if _, err := c.Analyze(1); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatalf("epoch 2 closed with %d/%d routers but no Degraded flag", len(arrived2), fleet)
	}
	if rep.Aligned == nil || rep.Aligned.Routers != len(arrived2) {
		t.Fatalf("analysis rows %+v, want %d (one per delivered router, duplicates collapsed)",
			rep.Aligned, len(arrived2))
	}
	for _, id := range rep.MissingRouters {
		if arrived2[id] {
			t.Fatalf("router %d reported missing but its digest arrived", id)
		}
	}

	// Never wrong: the pattern is still found, and only genuine carriers
	// whose digests arrived are implicated.
	if !rep.Aligned.Detection.Found {
		t.Fatalf("common content lost: %d/%d carriers' digests arrived yet nothing found",
			countCarriers(arrived2, isCarrier), len(carriers))
	}
	for _, id := range rep.Aligned.RouterIDs {
		if !isCarrier[id] {
			t.Fatalf("non-carrier router %d implicated: %v", id, rep.Aligned.RouterIDs)
		}
		if !arrived2[id] {
			t.Fatalf("router %d implicated without a delivered digest: %v", id, rep.Aligned.RouterIDs)
		}
	}

	// The transport's own books saw the chaos: sequence gaps were counted
	// and the corrupted frames were rejected, not delivered.
	s := srv.Stats()
	if s.DatagramsLost.Load() == 0 {
		t.Fatal("30% datagram drop left DatagramsLost at zero")
	}
	if s.DatagramsLate.Load() == 0 {
		t.Fatal("duplication+reordering left DatagramsLate at zero")
	}
}

func countCarriers(arrived map[int]bool, isCarrier map[int]bool) int {
	n := 0
	for r := range arrived {
		if isCarrier[r] {
			n++
		}
	}
	return n
}
