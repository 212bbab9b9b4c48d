package center

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/simulate"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// newTestUnaligned builds a tiny well-formed unaligned digest for ingest
// bookkeeping tests (its contents never reach an analysis).
func newTestUnaligned(router int) *unaligned.Digest {
	d := &unaligned.Digest{RouterID: router, Rows: make([][]*bitvec.Vector, 2)}
	for g := range d.Rows {
		d.Rows[g] = []*bitvec.Vector{bitvec.New(64), bitvec.New(64)}
	}
	return d
}

func smallBitmap(seed uint64) *bitvec.Vector {
	v := bitvec.New(256)
	s := seed
	v.FillRandomHalf(func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s
	})
	return v
}

func TestEpochsKeptSeparate(t *testing.T) {
	// Epoch 1 carries a common content, epoch 2 is pure background, and
	// every router re-reports for epoch 2 — the headline bug was epoch-2
	// bitmaps overwriting epoch-1 bitmaps for the same router ids.
	base := simulate.AlignedScenario{
		Seed:              5,
		Routers:           32,
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 3},
		BackgroundPackets: 2500,
		SegmentSize:       536,
	}
	epochs, err := simulate.RunAlignedEpochs(base, []simulate.EpochSpec{
		{Epoch: 1, Carriers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, ContentPackets: 12},
		{Epoch: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	c := New(Config{SubsetSize: 256})
	// Interleave the two epochs' digests router by router, epoch 2 first —
	// worst-case arrival order.
	for r := 0; r < base.Routers; r++ {
		c.Ingest(epochs[2].DigestMessages(2)[r])
		c.Ingest(epochs[1].DigestMessages(1)[r])
	}

	rep1, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Epoch != 1 || rep1.Aligned == nil || !rep1.Aligned.Detection.Found {
		t.Fatalf("epoch 1 pattern lost to cross-epoch contamination: %+v", rep1.Aligned)
	}
	rep2, err := c.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Aligned == nil {
		t.Fatal("epoch 2 window missing")
	}
	if rep2.Aligned.Detection.Found {
		t.Fatalf("pure-background epoch 2 detected a pattern: %+v", rep2.Aligned)
	}
	if rep1.Aligned.Routers != 32 || rep2.Aligned.Routers != 32 {
		t.Fatalf("router counts %d/%d, want 32/32", rep1.Aligned.Routers, rep2.Aligned.Routers)
	}
}

func TestDuplicatePolicy(t *testing.T) {
	first, second := smallBitmap(1), smallBitmap(2)

	c := New(Config{})
	c.Ingest(transport.AlignedDigest{RouterID: 7, Epoch: 1, Bitmap: first})
	c.Ingest(transport.AlignedDigest{RouterID: 7, Epoch: 1, Bitmap: second})
	if n := c.Stats().DuplicateDigests.Load(); n != 1 {
		t.Fatalf("duplicate counter %d", n)
	}
	if a, _ := c.Pending(); a != 1 {
		t.Fatalf("duplicate multiplied pending count: %d", a)
	}

	// Unaligned duplicates are tracked per router too.
	u := New(Config{})
	mk := func() transport.UnalignedDigest {
		return transport.UnalignedDigest{Epoch: 3, Digest: newTestUnaligned(9)}
	}
	u.Ingest(mk())
	u.Ingest(mk())
	if n := u.Stats().DuplicateDigests.Load(); n != 1 {
		t.Fatalf("unaligned duplicate counter %d", n)
	}
	if _, ua := u.Pending(); ua != 1 {
		t.Fatalf("unaligned duplicate multiplied pending: %d", ua)
	}
}

func TestLateDigestsDropped(t *testing.T) {
	c := New(Config{})
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 5, Bitmap: smallBitmap(1)})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 5, Bitmap: smallBitmap(2)})
	if _, err := c.Analyze(5); err != nil {
		t.Fatal(err)
	}
	// The window is gone: a straggler for epoch 5 (or anything older) is
	// late, not a new window.
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 5, Bitmap: smallBitmap(3)})
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 4, Bitmap: smallBitmap(4)})
	if n := c.Stats().LateDigests.Load(); n != 2 {
		t.Fatalf("late counter %d, want 2", n)
	}
	if len(c.Epochs()) != 0 {
		t.Fatalf("late digests reopened windows: %v", c.Epochs())
	}
	if _, err := c.Analyze(5); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("re-analysis of analyzed epoch: %v", err)
	}
}

func TestEpochRingEviction(t *testing.T) {
	c := New(Config{MaxEpochs: 2})
	for e := 1; e <= 3; e++ {
		c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: e, Bitmap: smallBitmap(uint64(e))})
	}
	// Epoch 3 evicted epoch 1.
	got := c.Epochs()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("retained epochs %v, want [2 3]", got)
	}
	s := c.Stats()
	if s.EpochsEvicted.Load() != 1 || s.DroppedDigests.Load() != 1 {
		t.Fatalf("eviction counters: evicted=%d dropped=%d, want 1 and 1", s.EpochsEvicted.Load(), s.DroppedDigests.Load())
	}
	// A newcomer older than the whole full ring is late.
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: smallBitmap(9)})
	if n := c.Stats().LateDigests.Load(); n != 1 {
		t.Fatalf("old-epoch newcomer not counted late: %d", n)
	}
}

func TestAnalyzeLatestComplete(t *testing.T) {
	c := New(Config{})
	if _, err := c.AnalyzeLatestComplete(); !errors.Is(err, ErrNoCompleteEpoch) {
		t.Fatalf("empty center: %v", err)
	}
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: smallBitmap(1)})
	// Only the newest epoch exists — nothing is complete yet.
	if _, err := c.AnalyzeLatestComplete(); !errors.Is(err, ErrNoCompleteEpoch) {
		t.Fatalf("newest epoch analyzed while possibly filling: %v", err)
	}
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 2, Bitmap: smallBitmap(2)})
	c.Ingest(transport.AlignedDigest{RouterID: 0, Epoch: 3, Bitmap: smallBitmap(3)})
	// Epochs 1 and 2 are both complete; spans close oldest first.
	rep, err := c.AnalyzeLatestComplete()
	if err != nil || rep.Epoch != 1 {
		t.Fatalf("first complete = %d (%v), want 1", rep.Epoch, err)
	}
	rep, err = c.AnalyzeLatestComplete()
	if err != nil || rep.Epoch != 2 {
		t.Fatalf("next complete = %d (%v), want 2", rep.Epoch, err)
	}
	if _, err := c.AnalyzeLatestComplete(); !errors.Is(err, ErrNoCompleteEpoch) {
		t.Fatalf("epoch 3 (newest) analyzed early: %v", err)
	}
}

// TestIngestAnalyzeRace hammers Ingest from many goroutines across several
// epochs while Analyze and the read-side accessors run concurrently; run
// with -race this is the concurrency safety net for the ingest path.
func TestIngestAnalyzeRace(t *testing.T) {
	c := New(Config{MaxEpochs: 8})
	const (
		writers = 8
		epochs  = 6
		perG    = 50
	)
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perG; i++ {
				e := 1 + (w+i)%epochs
				c.Ingest(transport.AlignedDigest{RouterID: w, Epoch: e, Bitmap: smallBitmap(uint64(w*1000 + i))})
				c.Ingest(transport.UnalignedDigest{Epoch: e, Digest: newTestUnaligned(w)})
			}
		}(w)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Pending()
			c.Epochs()
			c.EpochDigests()
			c.AnalyzeLatestComplete()
		}
	}()
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	// Every message ended exactly one way at ingest: accepted as a new
	// window entry, a keep-last replacement, or late. Dropped/evicted
	// digests were accepted first, so the ledger must balance exactly.
	s := c.Stats()
	total := int64(writers * perG * 2)
	if s.DigestsIngested.Load()+s.ReplacedDigests.Load()+s.LateDigests.Load() != total {
		t.Fatalf("digest accounting hole: ingested=%d replaced=%d late=%d dup=%d dropped=%d total=%d",
			s.DigestsIngested.Load(), s.ReplacedDigests.Load(), s.LateDigests.Load(), s.DuplicateDigests.Load(), s.DroppedDigests.Load(), total)
	}
	// Replacements are exactly the keep-last duplicates.
	if s.ReplacedDigests.Load() != s.DuplicateDigests.Load() {
		t.Fatalf("keep-last replaced=%d != duplicates=%d", s.ReplacedDigests.Load(), s.DuplicateDigests.Load())
	}
}

// TestCorruptedFrameLeavesWindowIntact is the acceptance scenario: a frame
// corrupted mid-stream costs only the offending connection; digests already
// ingested stay in their windows and later collectors keep landing.
func TestCorruptedFrameLeavesWindowIntact(t *testing.T) {
	res, err := simulate.RunAligned(simulate.AlignedScenario{
		Seed:              9,
		Routers:           24,
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 3},
		BackgroundPackets: 2500,
		SegmentSize:       536,
		ContentPackets:    12,
		Carriers:          []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := res.DigestMessages(1)

	c := New(Config{SubsetSize: 256})
	srv, err := transport.Serve("127.0.0.1:0", func(m transport.Message, _ net.Addr) {
		c.Ingest(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// First half of the fleet delivers over one connection, then the same
	// connection turns to garbage mid-stream.
	evil, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	for _, m := range msgs[:12] {
		if err := transport.Write(evil, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := evil.Write([]byte("garbage garbage garbage garbage!")); err != nil {
		t.Fatal(err)
	}
	// The server must cut this connection.
	evil.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := evil.Read(one[:]); err == nil {
		t.Fatal("corrupted connection survived")
	}

	// The rest of the fleet arrives on fresh connections.
	for _, m := range msgs[12:] {
		cl, err := transport.Dial(srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Send(m); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if a, _ := c.Pending(); a == 24 {
			break
		}
		if time.Now().After(deadline) {
			a, _ := c.Pending()
			t.Fatalf("only %d/24 digests survived the corruption", a)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.Stats().BadFrames.Load(); n != 1 {
		t.Fatalf("bad frame counter %d, want 1", n)
	}

	rep, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aligned == nil || !rep.Aligned.Detection.Found {
		t.Fatal("window lost to a single corrupted frame")
	}
}

// TestInterleavedEpochsOverOneConnection is the acceptance scenario: two
// epochs' digests alternate over a single TCP connection and are analyzed
// separately.
func TestInterleavedEpochsOverOneConnection(t *testing.T) {
	base := simulate.AlignedScenario{
		Seed:              11,
		Routers:           24,
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 3},
		BackgroundPackets: 2500,
		SegmentSize:       536,
	}
	epochs, err := simulate.RunAlignedEpochs(base, []simulate.EpochSpec{
		{Epoch: 1, Carriers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, ContentPackets: 12},
		{Epoch: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	c := New(Config{SubsetSize: 256})
	srv, err := transport.Serve("127.0.0.1:0", func(m transport.Message, _ net.Addr) {
		c.Ingest(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := transport.Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m1, m2 := epochs[1].DigestMessages(1), epochs[2].DigestMessages(2)
	for r := 0; r < base.Routers; r++ {
		if err := cl.Send(m2[r]); err != nil {
			t.Fatal(err)
		}
		if err := cl.Send(m1[r]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if a, _ := c.Pending(); a == 2*base.Routers {
			break
		}
		if time.Now().After(deadline) {
			a, _ := c.Pending()
			t.Fatalf("only %d/%d digests ingested", a, 2*base.Routers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rep1, err := c.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Aligned == nil || !rep1.Aligned.Detection.Found {
		t.Fatal("epoch 1 pattern not detected after interleaving")
	}
	if rep2.Aligned == nil || rep2.Aligned.Detection.Found {
		t.Fatalf("epoch 2 contaminated: %+v", rep2.Aligned)
	}
}

// TestReconnectingCollectorAcrossCenterRestart is the acceptance scenario:
// a collector on a ReconnectingClient delivers both epochs even though the
// center process restarts between them.
func TestReconnectingCollectorAcrossCenterRestart(t *testing.T) {
	base := simulate.AlignedScenario{
		Seed:              13,
		Routers:           24,
		Collector:         aligned.CollectorConfig{Bits: 1 << 13, HashSeed: 3},
		BackgroundPackets: 2500,
		SegmentSize:       536,
	}
	epochs, err := simulate.RunAlignedEpochs(base, []simulate.EpochSpec{
		{Epoch: 1, Carriers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, ContentPackets: 12},
		{Epoch: 2, Carriers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, ContentPackets: 12},
	})
	if err != nil {
		t.Fatal(err)
	}

	// One Center outlives its transport incarnations, as dcsd's would not —
	// what matters is that every digest reaches *a* center ingest path.
	c := New(Config{SubsetSize: 256})
	handler := func(m transport.Message, _ net.Addr) { c.Ingest(m) }
	srv, err := transport.Serve("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	client := transport.NewReconnectingClient(addr, transport.ReconnectConfig{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
	})
	defer client.Close()

	for _, m := range epochs[1].DigestMessages(1) {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if left := client.Flush(10 * time.Second); left != 0 {
		t.Fatalf("%d epoch-1 digests stuck", left)
	}
	waitPending := func(want int) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if a, _ := c.Pending(); a >= want {
				return
			}
			if time.Now().After(deadline) {
				a, _ := c.Pending()
				t.Fatalf("pending %d, want %d", a, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitPending(base.Routers)

	// Forced restart between epochs.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	for _, m := range epochs[2].DigestMessages(2) {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	srv2, err := transport.Serve(addr, handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if left := client.Flush(10 * time.Second); left != 0 {
		t.Fatalf("%d epoch-2 digests undelivered after restart", left)
	}
	waitPending(2 * base.Routers)

	for e := 1; e <= 2; e++ {
		rep, err := c.Analyze(e)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Aligned == nil || !rep.Aligned.Detection.Found {
			t.Fatalf("epoch %d pattern lost across center restart", e)
		}
		if rep.Aligned.Routers != base.Routers {
			t.Fatalf("epoch %d has %d routers, want %d", e, rep.Aligned.Routers, base.Routers)
		}
	}
	if n := client.Stats().Reconnects.Load(); n < 1 {
		t.Fatalf("reconnects = %d, want >= 1", n)
	}
}
