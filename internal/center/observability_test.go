package center

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dcstream/internal/metrics"
	"dcstream/internal/transport"
)

// TestEvictionTombstoneBlocksReopen is the regression test for the silent
// window-reopen bug: evicting an epoch from the middle of the ring (possible
// only when the quorum gate holds an older epoch, so the floor cannot rise)
// used to leave the epoch reopenable — a late digest would build a fresh
// near-empty window that the center later analyzed as a bogus degraded
// epoch, counted as ingested rather than late. With the tombstone the
// straggler is late, and the held older window stays reachable.
func TestEvictionTombstoneBlocksReopen(t *testing.T) {
	c := New(Config{MaxEpochs: 2, MinRouters: 2, MaxWait: 10})

	// Epoch 1: only router 1 → held open awaiting router 2.
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: smallBitmap(1)})
	// Epoch 2: both routers → closable, so it is the preferred victim.
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 2, Bitmap: smallBitmap(2)})
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 2, Bitmap: smallBitmap(3)})
	// Epoch 3 fills the ring past MaxEpochs: epoch 2 is evicted mid-ring
	// (epoch 1, though older, is held by quorum).
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 3, Bitmap: smallBitmap(4)})

	s := c.Stats().Snapshot()
	if s.EpochsEvicted != 1 || s.DroppedDigests != 2 {
		t.Fatalf("setup: evicted=%d dropped=%d, want the 2-digest epoch 2 evicted", s.EpochsEvicted, s.DroppedDigests)
	}
	if es := c.Epochs(); len(es) != 2 || es[0] != 1 || es[1] != 3 {
		t.Fatalf("setup: buffered epochs %v, want [1 3]", es)
	}

	// The straggler for the evicted epoch must be late, not a reopen.
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 2, Bitmap: smallBitmap(5)})
	s = c.Stats().Snapshot()
	if s.LateDigests != 1 {
		t.Fatalf("straggler for evicted epoch 2 counted as late=%d, want 1", s.LateDigests)
	}
	if s.DigestsIngested != 4 {
		t.Fatalf("straggler was ingested (ingested=%d, want 4) — epoch 2 reopened", s.DigestsIngested)
	}
	if es := c.Epochs(); len(es) != 2 || es[0] != 1 || es[1] != 3 {
		t.Fatalf("buffered epochs %v after straggler, want [1 3] (no reopened window)", es)
	}

	// The held epoch below the tombstone must still accept its quorum.
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 1, Bitmap: smallBitmap(6)})
	if s = c.Stats().Snapshot(); s.DigestsIngested != 5 || s.LateDigests != 1 {
		t.Fatalf("held epoch 1 rejected router 2: ingested=%d late=%d", s.DigestsIngested, s.LateDigests)
	}
	rep, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.Routers != 2 {
		t.Fatalf("epoch 1 analyzed %+v, want both routers and no degradation", rep)
	}

	// Once the floor rises past the tombstone it must be pruned, not leak.
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 4, Bitmap: smallBitmap(7)})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 5, Bitmap: smallBitmap(8)})
	c.mu.Lock()
	floor, floorValid, tombs := c.floor, c.floorValid, len(c.evicted)
	c.mu.Unlock()
	if !floorValid || floor < 2 {
		t.Fatalf("floor %d (valid=%v) never rose past the tombstoned epoch", floor, floorValid)
	}
	if tombs != 0 {
		t.Fatalf("%d tombstones survive a floor that subsumes them", tombs)
	}
}

// TestDupKeepLastCounterLedger is the regression test for the duplicate
// double-count: a DupKeepLast replacement used to increment DigestsIngested
// again, so a window holding one digest looked like two and eviction's
// DroppedDigests could never reconcile the ledger.
func TestDupKeepLastCounterLedger(t *testing.T) {
	c := New(Config{MaxEpochs: 1}) // DupKeepLast is the default
	c.Ingest(transport.AlignedDigest{RouterID: 7, Epoch: 1, Bitmap: smallBitmap(1)})
	c.Ingest(transport.AlignedDigest{RouterID: 7, Epoch: 1, Bitmap: smallBitmap(2)})
	c.Ingest(transport.UnalignedDigest{Epoch: 1, Digest: newTestUnaligned(7)})
	c.Ingest(transport.UnalignedDigest{Epoch: 1, Digest: newTestUnaligned(7)})

	s := c.Stats().Snapshot()
	if s.DigestsIngested != 2 || s.DuplicateDigests != 2 || s.ReplacedDigests != 2 {
		t.Fatalf("KeepLast counters ingested=%d dup=%d replaced=%d, want 2/2/2",
			s.DigestsIngested, s.DuplicateDigests, s.ReplacedDigests)
	}
	c.mu.Lock()
	held := c.windows[1].digests()
	c.mu.Unlock()
	if held != int(s.DigestsIngested) {
		t.Fatalf("window holds %d digests but ingested says %d", held, s.DigestsIngested)
	}

	// Evicting the window must drain exactly what DigestsIngested filled.
	c.Ingest(transport.AlignedDigest{RouterID: 7, Epoch: 2, Bitmap: smallBitmap(3)})
	s = c.Stats().Snapshot()
	if s.DroppedDigests != 2 {
		t.Fatalf("eviction dropped %d digests from a 2-digest window", s.DroppedDigests)
	}
	const sends = 5
	if s.DigestsIngested+s.ReplacedDigests+s.LateDigests != sends {
		t.Fatalf("ledger broken: ingested %d + replaced %d + late %d != %d sent",
			s.DigestsIngested, s.ReplacedDigests, s.LateDigests, sends)
	}

	// KeepFirst discards instead of replacing: ReplacedDigests stays zero.
	kf := New(Config{Duplicates: DupKeepFirst})
	kf.Ingest(transport.AlignedDigest{RouterID: 7, Epoch: 1, Bitmap: smallBitmap(1)})
	kf.Ingest(transport.AlignedDigest{RouterID: 7, Epoch: 1, Bitmap: smallBitmap(2)})
	s = kf.Stats().Snapshot()
	if s.DigestsIngested != 1 || s.DuplicateDigests != 1 || s.ReplacedDigests != 0 {
		t.Fatalf("KeepFirst counters ingested=%d dup=%d replaced=%d, want 1/1/0",
			s.DigestsIngested, s.DuplicateDigests, s.ReplacedDigests)
	}
}

// TestMetricsScrapeUnderChaosIngest runs a live /metrics endpoint against a
// center under concurrent ingest-and-analyze churn: every scrape must parse,
// counters must be monotone across scrapes, and the final exposition must
// equal the Stats snapshot. Run under -race this also proves scrapes never
// tear the ingest hot path.
func TestMetricsScrapeUnderChaosIngest(t *testing.T) {
	c := New(Config{MaxEpochs: 2})
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	const writers, perWriter = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(router int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Ingest(transport.AlignedDigest{
					RouterID: router,
					Epoch:    i,
					Bitmap:   smallBitmap(uint64(router*1000 + i)),
				})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			// Chaos churn: ErrNoCompleteEpoch is the expected idle case and
			// analysis errors are the scraped counters' job to expose.
			c.AnalyzeLatestComplete()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	monotone := []string{
		"dcs_center_digests_ingested_total",
		"dcs_center_digests_late_total",
		"dcs_center_digests_duplicate_total",
		"dcs_center_digests_dropped_total",
		"dcs_center_epochs_analyzed_total",
		"dcs_center_epochs_evicted_total",
	}
	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		samples, perr := metrics.ParseText(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if perr != nil {
			t.Fatalf("mid-chaos scrape does not parse: %v", perr)
		}
		return samples
	}

	prev := map[string]float64{}
	scrapes := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		samples := scrape()
		scrapes++
		for _, name := range monotone {
			if samples[name] < prev[name] {
				t.Fatalf("scrape %d: %s went backwards (%v -> %v)", scrapes, name, prev[name], samples[name])
			}
		}
		prev = samples
	}
	if scrapes < 2 {
		t.Fatalf("only %d scrapes completed; the test never observed the chaos", scrapes)
	}

	final := scrape()
	s := c.Stats().Snapshot()
	for name, want := range map[string]int64{
		"dcs_center_digests_ingested_total":  s.DigestsIngested,
		"dcs_center_digests_late_total":      s.LateDigests,
		"dcs_center_digests_duplicate_total": s.DuplicateDigests,
		"dcs_center_digests_replaced_total":  s.ReplacedDigests,
		"dcs_center_digests_dropped_total":   s.DroppedDigests,
		"dcs_center_epochs_analyzed_total":   s.EpochsAnalyzed,
		"dcs_center_epochs_evicted_total":    s.EpochsEvicted,
	} {
		if final[name] != float64(want) {
			t.Fatalf("final exposition %s = %v, snapshot says %d", name, final[name], want)
		}
	}
}
