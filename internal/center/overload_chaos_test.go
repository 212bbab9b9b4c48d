package center

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/faultinject/fsfault"
	"dcstream/internal/journal"
	"dcstream/internal/simulate"
	"dcstream/internal/transport"
)

// TestChaosOverloadDegradedNeverWrong is the overload acceptance scenario:
// the center takes a digest flood that busts its memory budget, a disk that
// fills mid-run under the journal, and a garbage-spraying sender — all at
// once — and must degrade honestly on every axis without ever being wrong:
//
//   - every epoch still buffered at the end analyzes to a verdict
//     bit-identical to an unloaded center fed the same digests,
//   - epochs sacrificed to the budget are explicit tombstones, never partial
//     verdicts, and the digest ledger balances exactly
//     (ingested = analyzed + shed),
//   - the journal degrades instead of failing ingest, counts what it could
//     not record, and re-arms once the disk recovers,
//   - the sprayer is quarantined and its traffic dropped on the books.
func TestChaosOverloadDegradedNeverWrong(t *testing.T) {
	const fleet = 8
	base := simulate.AlignedScenario{
		Seed:              23,
		Routers:           fleet,
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 7},
		BackgroundPackets: 400,
		SegmentSize:       536,
	}
	carriers := []int{0, 2, 3, 5, 6, 7}
	epochs, err := simulate.RunAlignedEpochs(base, []simulate.EpochSpec{
		{Epoch: 1},
		{Epoch: 2},
		{Epoch: 3},
		{Epoch: 4, Carriers: carriers, ContentPackets: 20},
		{Epoch: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	allEpochs := []int{1, 2, 3, 4, 5}

	// Unloaded reference: same digests, no budget, no faults. Its verdicts
	// are the ground truth the overloaded center must reproduce exactly for
	// whatever it admits.
	baseline := map[int]WindowReport{}
	ref := New(Config{SubsetSize: 256, MaxEpochs: 8})
	for _, e := range allEpochs {
		for _, m := range epochs[e].DigestMessages(e) {
			ref.Ingest(m)
		}
	}
	for _, e := range allEpochs {
		rep, err := ref.Analyze(e)
		if err != nil {
			t.Fatal(err)
		}
		baseline[e] = rep
	}
	if !baseline[4].Aligned.Detection.Found {
		t.Fatal("reference run finds no pattern in the content epoch; scenario is broken")
	}

	// The overloaded center: one 8192-bit digest costs 1136 accounted bytes,
	// one epoch 8*1136 — a budget of 2.5 epochs forces ShedOldest to
	// sacrifice epochs 1-3 as 4 and 5 fill.
	perDigest := retainedBytes(epochs[1].DigestMessages(1)[0])
	budget := perDigest * fleet * 5 / 2
	// Batch mode so the digest-denominated budget arithmetic above holds;
	// the incremental state's budget accounting is covered separately.
	c := New(Config{Analysis: AnalysisBatch, SubsetSize: 256, MaxEpochs: 8, MemoryBudgetBytes: budget, Shedding: ShedOldest})

	// Journal on a faulty disk: the first ENOSPC arrives mid-run, and the
	// 1ms retry interval lets the journal re-arm while traffic continues.
	fs := fsfault.NewFS(nil)
	jr, err := journal.Open(t.TempDir(), journal.Options{FS: fs, RetryInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	var mu sync.Mutex
	delivered := map[int]int{} // epoch -> digests the handler saw
	srv, err := transport.ServeUDPConfig("127.0.0.1:0", func(m transport.Message, _ net.Addr) {
		// Degraded-mode chaos: append failures are the scenario; the gap is
		// asserted via UnjournaledFrames below.
		jr.Append(m)
		if d, ok := m.(transport.AlignedDigest); ok {
			mu.Lock()
			delivered[d.Epoch]++
			mu.Unlock()
		}
		c.Ingest(m)
	}, transport.UDPServerConfig{Gate: transport.GateConfig{MaxStrikes: 5, Cooldown: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := transport.DialUDP(srv.Addr(), transport.UDPClientConfig{SenderID: 1, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sent := 0
	for _, e := range allEpochs {
		if e == 3 {
			// Disk full mid-run, while ingest continues.
			fs.FailNext(fsfault.FaultWrite, 1, errors.New("no space left on device"))
		}
		for _, m := range epochs[e].DigestMessages(e) {
			if err := client.Send(m); err != nil {
				t.Fatal(err)
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}

	// Loopback UDP with a deep kernel buffer: everything sent arrives.
	deadline := time.Now().Add(10 * time.Second)
	total := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, v := range delivered {
			n += v
		}
		return n
	}
	for total() != sent {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d digests; loopback should be lossless", total(), sent)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Garbage sender: malformed datagrams strike until quarantine; then a
	// well-formed probe digest for a bogus epoch must be dropped, not
	// ingested. (The gate keys by host, so on loopback the sprayer's
	// sentence covers every 127.0.0.1 sender — which is exactly why the
	// legit traffic was delivered first.)
	spray, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer spray.Close()
	for i := 0; i < 10; i++ {
		if _, err := spray.Write([]byte("not a dcs datagram at all")); err != nil {
			t.Fatal(err)
		}
	}
	for srv.Stats().SendersQuarantined.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("sprayer never quarantined; stats %+v", srv.Stats().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := client.Send(transport.AlignedDigest{RouterID: 1, Epoch: 99, Bitmap: epochs[1].Digests[0]}); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	for srv.Stats().QuarantineDrops.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe datagram from the quarantined host neither dropped nor counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	if delivered[99] != 0 {
		mu.Unlock()
		t.Fatal("digest from a quarantined sender reached the handler")
	}
	mu.Unlock()

	// Journal honesty: it degraded on the injected ENOSPC, absorbed the gap
	// in UnjournaledFrames, and is re-armable now that the disk works.
	if !jr.Degraded() {
		if jr.Stats().Rearms == 0 {
			t.Fatal("journal neither degraded-and-rearmed nor still degraded: the disk fault never landed")
		}
	} else if !jr.TryRearm() {
		t.Fatalf("journal cannot re-arm on a healthy disk: %v", jr.DegradedCause())
	}
	js := jr.Stats()
	if js.UnjournaledFrames == 0 {
		t.Fatal("ENOSPC mid-run left UnjournaledFrames at zero")
	}

	// Budget honesty: old epochs were shed whole, as tombstones, and the
	// ledger balances exactly — ingested = still-buffered + shed.
	s := c.Stats().Snapshot()
	if s.ShedEpochs == 0 {
		t.Fatalf("budget %d never forced a shed across %d digests", budget, sent)
	}
	if s.DigestsIngested != int64(sent) {
		t.Fatalf("ingested %d of %d delivered digests", s.DigestsIngested, sent)
	}
	a, u := c.Pending()
	if int64(a+u)+s.ShedDigests != s.DigestsIngested {
		t.Fatalf("ledger broken: buffered %d + shed %d != ingested %d", a+u, s.ShedDigests, s.DigestsIngested)
	}
	shed := map[int]bool{}
	for _, rep := range c.TakeShedReports() {
		if !rep.Shed || !rep.Degraded || rep.Aligned != nil {
			t.Fatalf("shed tombstone %+v carries an analysis or lacks its flags", rep)
		}
		if rep.ShedDigests != fleet {
			t.Fatalf("epoch %d tombstone says %d digests, want %d", rep.Epoch, rep.ShedDigests, fleet)
		}
		shed[rep.Epoch] = true
	}
	if int64(len(shed)) != s.ShedEpochs {
		t.Fatalf("%d tombstones for %d shed epochs", len(shed), s.ShedEpochs)
	}
	if shed[4] || shed[5] {
		t.Fatalf("ShedOldest sacrificed a newest epoch: %v", shed)
	}

	// Never wrong: every admitted epoch's verdict is bit-identical to the
	// unloaded run's — overload may shrink coverage, never perturb results.
	checked := 0
	for _, e := range allEpochs {
		if shed[e] {
			continue
		}
		rep, err := c.Analyze(e)
		if err != nil {
			t.Fatalf("admitted epoch %d: %v", e, err)
		}
		if !reflect.DeepEqual(rep.Aligned, baseline[e].Aligned) {
			t.Fatalf("epoch %d verdict diverged under load:\n  loaded:   %+v\n  baseline: %+v", e, rep.Aligned, baseline[e].Aligned)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every epoch was shed; nothing verified the never-wrong property")
	}
	if !shed[4] && !baseline[4].Aligned.Detection.Found {
		t.Fatal("content epoch survived but lost its pattern")
	}
}
