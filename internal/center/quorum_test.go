package center

import (
	"errors"
	"net"
	"testing"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/faultinject"
	"dcstream/internal/simulate"
	"dcstream/internal/transport"
)

// TestQuorumHoldsEpochOpen walks the quorum state machine directly: a
// below-quorum epoch is held while a known-live router is missing, released
// once the fleet moves MaxWait epochs past it, and reported Degraded with
// the absentee named.
func TestQuorumHoldsEpochOpen(t *testing.T) {
	c := New(Config{SubsetSize: 256, MinRouters: 3, MaxWait: 2})
	send := func(router, epoch int) {
		c.Ingest(transport.AlignedDigest{RouterID: router, Epoch: epoch,
			Bitmap: smallBitmap(uint64(router*100 + epoch))})
	}
	// Epoch 1: the full fleet of three reports. Epochs 2 and 3: router 2
	// has gone dark.
	for r := 0; r < 3; r++ {
		send(r, 1)
	}
	for _, e := range []int{2, 3} {
		send(0, e)
		send(1, e)
	}

	if q := c.Quorum(1); q.Hold || q.Reported != 3 || len(q.Missing) != 0 {
		t.Fatalf("epoch 1 at quorum misreported: %+v", q)
	}
	q := c.Quorum(2)
	if !q.Hold || q.Reported != 2 {
		t.Fatalf("epoch 2 below quorum not held: %+v", q)
	}
	if len(q.Missing) != 1 || q.Missing[0] != 2 {
		t.Fatalf("epoch 2 missing routers %v, want [2]", q.Missing)
	}

	// The registry knows all three routers and router 2's last epoch.
	routers := c.Routers()
	if len(routers) != 3 || routers[2].RouterID != 2 || routers[2].LastEpoch != 1 {
		t.Fatalf("router registry %+v", routers)
	}

	// Draining analyzes epoch 1 (complete, at quorum) but must not touch
	// the held epoch 2.
	rep, err := c.AnalyzeLatestComplete()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || rep.Degraded {
		t.Fatalf("first drain got epoch %d (degraded=%v), want healthy epoch 1", rep.Epoch, rep.Degraded)
	}
	if _, err := c.AnalyzeLatestComplete(); !errors.Is(err, ErrNoCompleteEpoch) {
		t.Fatalf("held epoch 2 was analyzed early: %v", err)
	}

	// Epoch 4 arrives from the live routers: the fleet is now MaxWait=2
	// epochs past epoch 2, so its hold expires and it closes degraded.
	send(0, 4)
	send(1, 4)
	if q := c.Quorum(2); q.Hold {
		t.Fatalf("epoch 2 still held after MaxWait exhausted: %+v", q)
	}
	rep, err = c.AnalyzeLatestComplete()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 || !rep.Degraded {
		t.Fatalf("drain after MaxWait got epoch %d (degraded=%v), want degraded epoch 2", rep.Epoch, rep.Degraded)
	}
	if len(rep.MissingRouters) != 1 || rep.MissingRouters[0] != 2 {
		t.Fatalf("degraded report missing routers %v, want [2]", rep.MissingRouters)
	}
	if n := c.Stats().DegradedEpochs.Load(); n != 1 {
		t.Fatalf("degraded counter %d, want 1", n)
	}

	// An explicit Analyze is an operator override: it closes a held epoch
	// immediately, still marked degraded.
	if q := c.Quorum(3); !q.Hold {
		t.Fatalf("epoch 3 should still be held: %+v", q)
	}
	rep, err = c.Analyze(3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || len(rep.MissingRouters) != 1 || rep.MissingRouters[0] != 2 {
		t.Fatalf("explicit analyze of held epoch: %+v", rep)
	}
}

// waitEpochCount polls until the center has buffered want digests for epoch.
func waitEpochCount(t *testing.T, c *Center, epoch, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if n := c.EpochDigests()[epoch]; n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d: only %d/%d digests arrived", epoch, c.EpochDigests()[epoch], want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPartitionedRouterDegradedVerdict is the acceptance scenario: one
// router of eight is hard-partitioned (its digests blackholed by the chaos
// proxy) during an epoch that carries a common content. The epoch must be
// held until MaxWait expires, then analyzed with Degraded=true, the
// partitioned router named missing, and the pattern still found among the
// seven observed routers — never a silent full-fleet verdict.
func TestPartitionedRouterDegradedVerdict(t *testing.T) {
	const (
		fleet       = 8
		partitioned = 3
	)
	base := simulate.AlignedScenario{
		Seed:    11,
		Routers: fleet,
		// Light enough background that a 5-carrier pattern clears the
		// significance bound of a 7-row matrix (the bound conditions on
		// the observed density and row count).
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 7},
		BackgroundPackets: 600,
		SegmentSize:       536,
	}
	carriers := []int{0, 1, 2, 4, 5} // content avoids the partitioned router
	epochs, err := simulate.RunAlignedEpochs(base, []simulate.EpochSpec{
		{Epoch: 1},
		{Epoch: 2, Carriers: carriers, ContentPackets: 16},
		{Epoch: 3},
		{Epoch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	c := New(Config{SubsetSize: 256, MinRouters: fleet, MaxWait: 2, MaxEpochs: 8})
	srv, err := transport.Serve("127.0.0.1:0", func(m transport.Message, _ net.Addr) { c.Ingest(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Router 3 reaches the center through the chaos proxy; everyone else
	// has a clean path.
	proxy, err := faultinject.New(srv.Addr(), faultinject.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cut := transport.NewReconnectingClient(proxy.Addr(), transport.ReconnectConfig{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
	})
	defer cut.Close()
	direct, err := transport.Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	// Epoch 1: the full fleet reports (registers router 3 as known).
	for _, m := range epochs[1].DigestMessagesExcept(1, partitioned) {
		if err := direct.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := cut.Send(epochs[1].DigestMessages(1)[partitioned]); err != nil {
		t.Fatal(err)
	}
	if left := cut.Flush(5 * time.Second); left != 0 {
		t.Fatalf("router %d epoch-1 digest stuck: %d pending", partitioned, left)
	}
	waitEpochCount(t, c, 1, fleet, 5*time.Second)

	// The link partitions. Epochs 2-4 arrive only from the other seven;
	// router 3 keeps transmitting into the void.
	proxy.Partition()
	for _, e := range []int{2, 3, 4} {
		for _, m := range epochs[e].DigestMessagesExcept(e, partitioned) {
			if err := direct.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		cut.Send(epochs[e].DigestMessages(e)[partitioned])
		waitEpochCount(t, c, e, fleet-1, 5*time.Second)
	}

	// Drain, oldest first: epoch 1 (full fleet, no content) closes healthy.
	rep, err := c.AnalyzeLatestComplete()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || rep.Degraded || rep.Aligned == nil || rep.Aligned.Detection.Found {
		t.Fatalf("epoch 1 report wrong: %+v", rep)
	}

	// Epoch 2 is two epochs behind maxSeen=4, so its hold has expired;
	// epochs 3 (held) and 4 (newest) must stay open.
	rep, err = c.AnalyzeLatestComplete()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 {
		t.Fatalf("drained epoch %d second, want 2", rep.Epoch)
	}
	if !rep.Degraded {
		t.Fatal("partitioned epoch analyzed without Degraded marker")
	}
	if len(rep.MissingRouters) != 1 || rep.MissingRouters[0] != partitioned {
		t.Fatalf("missing routers %v, want [%d]", rep.MissingRouters, partitioned)
	}
	if rep.Aligned == nil || rep.Aligned.Routers != fleet-1 {
		t.Fatalf("aligned analysis saw %+v, want %d routers", rep.Aligned, fleet-1)
	}
	if !rep.Aligned.Detection.Found {
		t.Fatal("common content lost in the degraded window")
	}
	for _, id := range rep.Aligned.RouterIDs {
		if id == partitioned {
			t.Fatalf("partitioned router %d implicated without a digest: %v", partitioned, rep.Aligned.RouterIDs)
		}
	}

	// Epoch 3 is still inside its MaxWait hold; the drain must refuse it
	// rather than close it below quorum early.
	if _, err := c.AnalyzeLatestComplete(); !errors.Is(err, ErrNoCompleteEpoch) {
		t.Fatalf("held epoch closed early: %v", err)
	}
	if q := c.Quorum(3); !q.Hold || q.Missing[0] != partitioned {
		t.Fatalf("epoch 3 quorum state %+v", q)
	}
}
