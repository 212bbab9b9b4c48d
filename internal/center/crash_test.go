package center

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/faultinject"
	"dcstream/internal/journal"
	"dcstream/internal/simulate"
	"dcstream/internal/transport"
)

// TestCrashRecoveryThroughChaosProxy is the kill-and-restart acceptance
// scenario: two epochs of digests reach the center through a lossy,
// corrupting, reordering proxy and are journaled as they arrive; the center
// then "crashes" (server closed, center and journal dropped without a drain
// or clean close). A restart replays the journal into a fresh center, which
// must produce the same verdicts — same pattern, same implicated routers —
// as an uninterrupted run fed directly.
func TestCrashRecoveryThroughChaosProxy(t *testing.T) {
	const fleet = 16
	carriers := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	base := simulate.AlignedScenario{
		Seed:              23,
		Routers:           fleet,
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 9},
		BackgroundPackets: 1000,
		SegmentSize:       536,
	}
	epochs, err := simulate.RunAlignedEpochs(base, []simulate.EpochSpec{
		{Epoch: 1, Carriers: carriers, ContentPackets: 12},
		{Epoch: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: an uninterrupted center fed directly.
	truth := map[int]WindowReport{}
	{
		c := New(Config{SubsetSize: 256})
		for _, e := range []int{1, 2} {
			for _, m := range epochs[e].DigestMessages(e) {
				c.Ingest(m)
			}
		}
		for _, e := range []int{1, 2} {
			rep, err := c.Analyze(e)
			if err != nil {
				t.Fatal(err)
			}
			truth[e] = rep
		}
	}
	if truth[1].Aligned == nil || !truth[1].Aligned.Detection.Found {
		t.Fatal("ground-truth run found no pattern; scenario parameters are off")
	}

	// The live path: chaos proxy -> server -> journal + center.
	dir := t.TempDir()
	jr, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	live := New(Config{SubsetSize: 256})
	var mu sync.Mutex
	seen := map[[2]int]bool{}
	srv, err := transport.Serve("127.0.0.1:0", func(m transport.Message, _ net.Addr) {
		if err := jr.Append(m); err != nil {
			t.Errorf("journal append: %v", err)
			return
		}
		live.Ingest(m)
		if d, ok := m.(transport.AlignedDigest); ok {
			mu.Lock()
			seen[[2]int{d.RouterID, d.Epoch}] = true
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultinject.New(srv.Addr(), faultinject.Config{
		Seed:      99,
		Drop:      0.02,
		Duplicate: 0.05,
		Reorder:   0.05,
		Truncate:  0.01,
		BitFlip:   0.02,
		Delay:     0.2,
		ChunkSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	client := transport.NewReconnectingClient(proxy.Addr(), transport.ReconnectConfig{
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	})
	defer client.Close()

	// The proxy corrupts and drops whole frames, and the client has no
	// acks, so delivery needs an application-level retry loop: resend
	// whatever the center has not recorded yet until everything landed.
	// (This is exactly why the center keeps DupKeepLast as its default —
	// the retries double-deliver constantly.)
	deadline := time.Now().Add(30 * time.Second)
	for {
		missing := 0
		for _, e := range []int{1, 2} {
			for _, m := range epochs[e].DigestMessages(e) {
				mu.Lock()
				ok := seen[[2]int{m.RouterID, m.Epoch}]
				mu.Unlock()
				if !ok {
					missing++
					client.Send(m)
				}
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d digests never made it through the chaos proxy", missing)
		}
		client.Flush(time.Second)
		time.Sleep(50 * time.Millisecond)
	}

	// Crash: the server stops accepting, and the center and journal are
	// abandoned mid-flight — no drain, no Close, no fsync of the tail.
	srv.Close()
	_ = live // the in-RAM windows die with the process

	// Restart: reopen the journal, replay into a fresh center, analyze.
	jr2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := New(Config{SubsetSize: 256})
	if err := jr2.Replay(func(m transport.Message) error {
		recovered.Ingest(m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := jr2.Stats().FramesReplayed.Load(); n < fleet*2 {
		t.Fatalf("replayed only %d frames, want at least %d", n, fleet*2)
	}
	for _, e := range []int{1, 2} {
		rep, err := recovered.Analyze(e)
		if err != nil {
			t.Fatalf("epoch %d after recovery: %v", e, err)
		}
		want := truth[e]
		if (rep.Aligned == nil) != (want.Aligned == nil) {
			t.Fatalf("epoch %d: recovered aligned=%v, truth=%v", e, rep.Aligned, want.Aligned)
		}
		if rep.Aligned.Detection.Found != want.Aligned.Detection.Found {
			t.Fatalf("epoch %d: recovered found=%v, truth found=%v",
				e, rep.Aligned.Detection.Found, want.Aligned.Detection.Found)
		}
		if !reflect.DeepEqual(rep.Aligned.RouterIDs, want.Aligned.RouterIDs) {
			t.Fatalf("epoch %d: recovered implicated %v, truth %v",
				e, rep.Aligned.RouterIDs, want.Aligned.RouterIDs)
		}
	}

	// Marking epoch 1 analyzed means a further restart replays only epoch
	// 2 — analyzed windows never come back.
	if err := jr2.EpochAnalyzed(1); err != nil {
		t.Fatal(err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	jr3, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr3.Close()
	if err := jr3.Replay(func(m transport.Message) error {
		if d, ok := m.(transport.AlignedDigest); !ok || d.Epoch != 2 {
			return fmt.Errorf("analyzed epoch replayed: %#v", m)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
