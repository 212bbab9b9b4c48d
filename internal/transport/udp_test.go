package transport

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dcstream/internal/bitvec"
	"dcstream/internal/unaligned"
)

// collectUDP starts a UDPServer that records every delivered message.
func collectUDP(t *testing.T, cfg UDPServerConfig) (*UDPServer, func() []Message) {
	t.Helper()
	var mu sync.Mutex
	var msgs []Message
	srv, err := ServeUDPConfig("127.0.0.1:0", func(m Message, _ net.Addr) {
		mu.Lock()
		msgs = append(msgs, m)
		mu.Unlock()
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, func() []Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]Message(nil), msgs...)
	}
}

// waitFor polls until cond holds or the deadline passes. UDP delivery on
// loopback is reliable in practice but asynchronous, so tests wait rather
// than sleep.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestUDPRoundTripBatchesFrames(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{})
	c, err := DialUDP(srv.Addr(), UDPClientConfig{
		SenderID:         7,
		MaxDatagramBytes: 60000,
		FlushInterval:    -1, // explicit flush only: the whole burst must batch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 40
	want := make([]*bitvec.Vector, n)
	for i := 0; i < n; i++ {
		want[i] = randomVector(uint64(i+1), 512)
		if err := c.Send(AlignedDigest{RouterID: i, Epoch: 3, Bitmap: want[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(got()) == n })

	for _, m := range got() {
		d, ok := m.(AlignedDigest)
		if !ok {
			t.Fatalf("delivered %T", m)
		}
		if d.Epoch != 3 || !bitvec.Equal(d.Bitmap, want[d.RouterID]) {
			t.Fatalf("router %d bitmap corrupted in flight", d.RouterID)
		}
	}

	// The entire burst fits one datagram at this budget: batching must have
	// produced exactly one send, not n.
	cs, ss := c.Stats().Snapshot(), srv.Stats().Snapshot()
	if cs.DatagramsOut != 1 || cs.FramesOut != n {
		t.Fatalf("client sent %d datagrams / %d frames, want 1 / %d", cs.DatagramsOut, cs.FramesOut, n)
	}
	if ss.DatagramsIn != 1 || ss.FramesIn != n || ss.DatagramsRejected != 0 {
		t.Fatalf("server stats %+v, want one datagram with %d frames", ss, n)
	}
}

func TestUDPUnalignedRoundTrip(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{})
	c, err := DialUDP(srv.Addr(), UDPClientConfig{MaxDatagramBytes: 60000, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dg := &unaligned.Digest{RouterID: 5, Rows: make([][]*bitvec.Vector, 3)}
	seed := uint64(100)
	for g := range dg.Rows {
		dg.Rows[g] = make([]*bitvec.Vector, 4)
		for a := range dg.Rows[g] {
			seed++
			dg.Rows[g][a] = randomVector(seed, 1024)
		}
	}
	if err := c.Send(UnalignedDigest{Epoch: 9, Digest: dg}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(got()) == 1 })
	m := got()[0].(UnalignedDigest)
	if m.Epoch != 9 || m.Digest.RouterID != 5 {
		t.Fatal("header mismatch")
	}
	for g := range dg.Rows {
		for a := range dg.Rows[g] {
			if !bitvec.Equal(m.Digest.Rows[g][a], dg.Rows[g][a]) {
				t.Fatalf("row (%d,%d) mismatch", g, a)
			}
		}
	}
}

// TestUDPSendSplitsAtBudget proves a frame that would overflow the datagram
// budget flushes the buffered frames first instead of building an oversized
// datagram.
func TestUDPSendSplitsAtBudget(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{})
	c, err := DialUDP(srv.Addr(), UDPClientConfig{MaxDatagramBytes: 400, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sent := &writeLog{Conn: c.conn}
	c.conn = sent // no flush timer is running to race with

	// Each frame is 13+8+4+16*8 = 153 bytes; two fit a 400-byte budget with
	// the 20-byte header, three do not.
	for i := 0; i < 6; i++ {
		if err := c.Send(AlignedDigest{RouterID: i, Epoch: 1, Bitmap: randomVector(uint64(i+1), 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(got()) == 6 })
	if out := c.Stats().Snapshot().DatagramsOut; out != 3 {
		t.Fatalf("sent %d datagrams, want 3 (two 153-byte frames per 400-byte budget)", out)
	}
	// The frame that overflowed a datagram opens the next one, in order, and
	// the encode-then-check never lets an over-budget datagram out.
	for i, dg := range sent.writes {
		if len(dg) > 400 {
			t.Fatalf("datagram %d is %d bytes, over the 400-byte budget", i, len(dg))
		}
		var routers []int
		if _, _, err := decodeDatagram(dg, func(m Message) { routers = append(routers, m.(AlignedDigest).RouterID) }); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if len(routers) != 2 || routers[0] != 2*i || routers[1] != 2*i+1 {
			t.Fatalf("datagram %d carries routers %v, want [%d %d]", i, routers, 2*i, 2*i+1)
		}
	}
	if lost := srv.Stats().Snapshot().DatagramsLost; lost != 0 {
		t.Fatalf("loopback delivery counted %d lost datagrams", lost)
	}
}

func TestUDPOversizedFrameRejected(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{})
	c, err := DialUDP(srv.Addr(), UDPClientConfig{MaxDatagramBytes: 256, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Send(AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(1, 1<<15)})
	if err == nil || !strings.Contains(err.Error(), "datagram budget") {
		t.Fatalf("oversized frame: %v", err)
	}
	// The rejection must not have staged partial bytes: a following small
	// frame still round-trips alone.
	if err := c.Send(AlignedDigest{RouterID: 2, Epoch: 1, Bitmap: randomVector(2, 64)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(got()) == 1 })
	if d := got()[0].(AlignedDigest); d.RouterID != 2 {
		t.Fatalf("delivered router %d, want 2", d.RouterID)
	}
}

// TestUDPPrefilterRejectsGarbage throws non-protocol datagrams at the server
// and checks they are counted rejected without reaching the handler — the
// cheap gate port scans and stray traffic hit.
func TestUDPPrefilterRejectsGarbage(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{})
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	short := []byte{1, 2, 3}
	badMagic := make([]byte, udpHeaderLen+headerLen)
	putDatagramHeader(badMagic, DatagramHeader{Count: 1, Seq: 1})
	badMagic[0] = 'X'
	badVersion := make([]byte, udpHeaderLen+headerLen)
	putDatagramHeader(badVersion, DatagramHeader{Count: 1, Seq: 1})
	badVersion[4] = 99
	zeroCount := make([]byte, udpHeaderLen+headerLen)
	putDatagramHeader(zeroCount, DatagramHeader{Count: 0, Seq: 1})
	lyingCount := make([]byte, udpHeaderLen+headerLen)
	putDatagramHeader(lyingCount, DatagramHeader{Count: 9, Seq: 1}) // 9 frames cannot fit one header's worth of bytes

	for _, p := range [][]byte{short, badMagic, badVersion, zeroCount, lyingCount} {
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().Snapshot().DatagramsRejected == 5 })
	s := srv.Stats().Snapshot()
	if s.DatagramsIn != 0 || s.FramesIn != 0 || len(got()) != 0 {
		t.Fatalf("garbage reached past the prefilter: %+v, %d messages delivered", s, len(got()))
	}
}

// TestUDPCorruptFrameCountedBad flips payload bytes inside an otherwise valid
// datagram: earlier clean frames must still be delivered, the corrupt one
// counted in BadFrames.
func TestUDPCorruptFrameCountedBad(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{})
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := make([]byte, udpHeaderLen)
	putDatagramHeader(buf, DatagramHeader{Sender: 1, Seq: 1, Count: 2})
	buf, err = AppendFrame(buf, AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(1, 256)})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(buf)
	buf, err = AppendFrame(buf, AlignedDigest{RouterID: 2, Epoch: 1, Bitmap: randomVector(2, 256)})
	if err != nil {
		t.Fatal(err)
	}
	buf[cut+headerLen] ^= 0xFF // corrupt the second frame's payload
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().Snapshot().BadFrames == 1 })
	s := srv.Stats().Snapshot()
	if s.DatagramsIn != 1 || s.FramesIn != 1 {
		t.Fatalf("stats %+v, want 1 datagram in, 1 clean frame", s)
	}
	msgs := got()
	if len(msgs) != 1 || msgs[0].(AlignedDigest).RouterID != 1 {
		t.Fatalf("delivered %d messages, want only the clean first frame", len(msgs))
	}
}

// datagram packs one aligned digest frame per router, epoch 1, under sender
// 1's header with the given seq; corrupt > 0 flips a payload byte of that
// (1-based) frame.
func datagram(t *testing.T, seq uint64, routers []int, corrupt int) []byte {
	t.Helper()
	buf := make([]byte, udpHeaderLen)
	putDatagramHeader(buf, DatagramHeader{Sender: 1, Seq: seq, Count: len(routers)})
	for i, r := range routers {
		start := len(buf)
		var err error
		if buf, err = AppendFrame(buf, AlignedDigest{RouterID: r, Epoch: 1, Bitmap: randomVector(uint64(r+1), 256)}); err != nil {
			t.Fatal(err)
		}
		if i+1 == corrupt {
			buf[start+headerLen] ^= 0xFF
		}
	}
	return buf
}

// routerIDs names delivered aligned digests by router, in delivery order.
func routerIDs(ms []Message) []int {
	ids := []int{}
	for _, m := range ms {
		ids = append(ids, m.(AlignedDigest).RouterID)
	}
	return ids
}

// writeUDP sends each datagram to addr from one socket.
func writeUDP(t *testing.T, addr string, dgs ...[]byte) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, dg := range dgs {
		if _, err := conn.Write(dg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUDPBatchEndsAtCorruptFrame: a datagram is one handler call carrying
// the frames that decoded before its first corrupt one — frames 1 and 2 of
// five when the third is bad — plus one bad frame and one strike.
func TestUDPBatchEndsAtCorruptFrame(t *testing.T) {
	var mu sync.Mutex
	var batches [][]int
	srv, err := ServeUDPBatch("127.0.0.1:0", func(ms []Message, _ net.Addr) {
		mu.Lock()
		batches = append(batches, routerIDs(ms))
		mu.Unlock()
	}, UDPServerConfig{Gate: GateConfig{MaxStrikes: 8, Cooldown: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	writeUDP(t, srv.Addr(), datagram(t, 1, []int{1, 2, 3, 4, 5}, 3))
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().Snapshot().BadFrames == 1 })
	mu.Lock()
	defer mu.Unlock()
	if want := [][]int{{1, 2}}; !reflect.DeepEqual(batches, want) {
		t.Fatalf("handler calls %v, want %v", batches, want)
	}
	if s := srv.Stats().Snapshot(); s.DatagramsIn != 1 || s.FramesIn != 2 || s.BadFrames != 1 || s.Strikes != 1 {
		t.Fatalf("stats %+v, want 1 datagram, 2 frames in, 1 bad frame, 1 strike", s)
	}
}

// TestServeUDPConfigAdapterMatchesBatch: the per-message entry point is the
// batch one unrolled — the same messages, in the same order, across clean,
// corrupt-mid and corrupt-first datagrams.
func TestServeUDPConfigAdapterMatchesBatch(t *testing.T) {
	adapter, single := collectUDP(t, UDPServerConfig{})
	var mu sync.Mutex
	var batched []Message
	srv, err := ServeUDPBatch("127.0.0.1:0", func(ms []Message, _ net.Addr) {
		mu.Lock()
		batched = append(batched, ms...)
		mu.Unlock()
	}, UDPServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dgs := [][]byte{
		datagram(t, 1, []int{1, 2, 3}, 0),
		datagram(t, 2, []int{4, 5, 6, 7}, 2),
		datagram(t, 3, []int{8}, 1),
		datagram(t, 4, []int{9, 10}, 0),
	}
	writeUDP(t, adapter.Addr(), dgs...)
	writeUDP(t, srv.Addr(), dgs...)
	// One read goroutine per server: once the last datagram's frames are in,
	// every earlier handler call has returned.
	want := []int{1, 2, 3, 4, 9, 10}
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(batched) == len(want) && len(single()) == len(want)
	})
	mu.Lock()
	defer mu.Unlock()
	if got := routerIDs(batched); !reflect.DeepEqual(got, want) {
		t.Fatalf("batch entry point delivered routers %v, want %v", got, want)
	}
	got := single()
	if !reflect.DeepEqual(routerIDs(got), want) {
		t.Fatalf("adapter delivered routers %v, batch entry point %v", routerIDs(got), want)
	}
	for i, m := range got {
		if a, b := m.(AlignedDigest), batched[i].(AlignedDigest); a.Epoch != b.Epoch || !bitvec.Equal(a.Bitmap, b.Bitmap) {
			t.Fatalf("message %d differs between the entry points", i)
		}
	}
}

// TestUDPSequenceAccounting hand-crafts datagrams with gappy and repeated
// sequence numbers and checks the lost/late ledgers.
func TestUDPSequenceAccounting(t *testing.T) {
	srv, _ := collectUDP(t, UDPServerConfig{})
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(sender uint32, seq uint64) {
		t.Helper()
		buf := make([]byte, udpHeaderLen)
		putDatagramHeader(buf, DatagramHeader{Sender: sender, Seq: seq, Count: 1})
		buf, err := AppendFrame(buf, AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(seq, 64)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}

	send(1, 1) // clean start
	send(1, 4) // 2 and 3 lost
	send(1, 3) // one of them shows up late
	send(1, 4) // duplicate
	send(2, 3) // second sender first heard at 3: leading 1 and 2 lost
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().Snapshot().DatagramsIn == 5 })
	s := srv.Stats().Snapshot()
	if s.DatagramsLost != 4 || s.DatagramsLate != 2 {
		t.Fatalf("lost=%d late=%d, want lost=4 (2,3 from sender 1; 1,2 from sender 2) late=2", s.DatagramsLost, s.DatagramsLate)
	}
	// Late and duplicated frames are still delivered; the center's duplicate
	// accounting is the place that resolves them.
	if s.FramesIn != 5 {
		t.Fatalf("FramesIn=%d, want 5 (late and duplicate frames delivered)", s.FramesIn)
	}
}

// TestUDPPeerMapBoundedUnderSenderChurn floods the server with datagrams
// from distinct forged sender ids — the unbounded-map leak scenario — and
// proves the sequence-accounting map stays within MaxPeers with every
// eviction counted.
func TestUDPPeerMapBoundedUnderSenderChurn(t *testing.T) {
	const maxPeers = 16
	srv, _ := collectUDP(t, UDPServerConfig{MaxPeers: maxPeers})
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const churn = 200
	for i := 0; i < churn; i++ {
		buf := make([]byte, udpHeaderLen)
		putDatagramHeader(buf, DatagramHeader{Sender: uint32(i + 1), Seq: 1, Count: 1})
		buf, err := AppendFrame(buf, AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(uint64(i+1), 64)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Stats().Snapshot().DatagramsIn == churn })

	if n := srv.trackedPeers(); n > maxPeers {
		t.Fatalf("peers map holds %d entries after %d-sender churn, want <= %d", n, churn, maxPeers)
	}
	s := srv.Stats().Snapshot()
	if want := int64(churn - maxPeers); s.PeerEvictions != want {
		t.Fatalf("PeerEvictions=%d, want %d (every entry past the cap evicted and counted)", s.PeerEvictions, want)
	}
}

// TestUDPPeerEvictionPolicy drives accountSeq directly with a scripted clock
// to pin the eviction order: entries idle past the quarantine cooldown are
// all swept first; when nothing is idle, exactly the least-recently-seen
// entry goes.
func TestUDPPeerEvictionPolicy(t *testing.T) {
	srv, _ := collectUDP(t, UDPServerConfig{MaxPeers: 3})
	clock := time.Unix(1000, 0)
	srv.now = func() time.Time { return clock }

	seen := func(sender uint32) { srv.accountSeq(DatagramHeader{Sender: sender, Seq: 1, Count: 1}) }
	seen(1)
	clock = clock.Add(time.Second)
	seen(2)
	clock = clock.Add(time.Second)
	seen(3)

	// Nothing is idle past the 30s cooldown yet, so admitting sender 4 must
	// evict only the least-recently-seen entry: sender 1.
	clock = clock.Add(time.Second)
	seen(4)
	if n := srv.trackedPeers(); n != 3 {
		t.Fatalf("tracked %d peers, want 3", n)
	}
	srv.mu.Lock()
	_, oneAlive := srv.peers[1]
	_, twoAlive := srv.peers[2]
	srv.mu.Unlock()
	if oneAlive || !twoAlive {
		t.Fatalf("LRU eviction took the wrong victim: sender1 alive=%v sender2 alive=%v", oneAlive, twoAlive)
	}
	if got := srv.Stats().Snapshot().PeerEvictions; got != 1 {
		t.Fatalf("PeerEvictions=%d after LRU eviction, want 1", got)
	}

	// Let 2 and 3 go idle past the 30s cooldown while 4 stays fresh, then
	// admit sender 5: both idle entries are swept in one pass.
	clock = clock.Add(30 * time.Second)
	seen(4)
	clock = clock.Add(time.Second)
	seen(5)
	srv.mu.Lock()
	_, fourAlive := srv.peers[4]
	_, fiveAlive := srv.peers[5]
	n := len(srv.peers)
	srv.mu.Unlock()
	if !fourAlive || !fiveAlive || n != 2 {
		t.Fatalf("after idle sweep: %d peers, sender4 alive=%v sender5 alive=%v; want 2/true/true", n, fourAlive, fiveAlive)
	}
	if got := srv.Stats().Snapshot().PeerEvictions; got != 3 {
		t.Fatalf("PeerEvictions=%d after idle sweep, want 3 (1 LRU + 2 idle)", got)
	}
}

// TestUDPSenderRestartResetsMark pins the restart heuristic at the
// accounting layer with a scripted clock: a small sequence number far below
// the high-water mark after a quiet gap resets the mark instead of branding
// the whole renumbered stream late — and the guards (no quiet gap, young
// stream, detection disabled) all still count late.
func TestUDPSenderRestartResetsMark(t *testing.T) {
	srv, _ := collectUDP(t, UDPServerConfig{})
	clock := time.Unix(2000, 0)
	srv.now = func() time.Time { return clock }

	seen := func(sender uint32, seq uint64) { srv.accountSeq(DatagramHeader{Sender: sender, Seq: seq, Count: 1}) }
	stats := func() Snapshot { return srv.Stats().Snapshot() }

	// Ramp sender 1 well past restartSeqMax.
	for seq := uint64(1); seq <= 200; seq++ {
		seen(1, seq)
	}
	// A reordered duplicate with no quiet gap is late, not a restart.
	seen(1, 3)
	if s := stats(); s.DatagramsLate != 1 || s.SenderRestarts != 0 {
		t.Fatalf("reorder without gap: late=%d restarts=%d, want 1/0", s.DatagramsLate, s.SenderRestarts)
	}
	// The same small seq after a quiet gap is a restart: mark resets, the
	// renumbered stream counts fresh, leading losses chalked up like a first
	// contact (seq 3 ⇒ 1 and 2 lost).
	lostBefore := stats().DatagramsLost
	clock = clock.Add(2 * time.Second)
	seen(1, 3)
	seen(1, 4)
	seen(1, 5)
	if s := stats(); s.SenderRestarts != 1 || s.DatagramsLate != 1 {
		t.Fatalf("after restart: restarts=%d late=%d, want 1/1 (post-restart stream not late)", s.SenderRestarts, s.DatagramsLate)
	}
	if s := stats(); s.DatagramsLost != lostBefore+2 {
		t.Fatalf("restart leading losses: lost=%d, want %d", s.DatagramsLost, lostBefore+2)
	}

	// A young stream (mark within restartSeqMax of the arrival) never reads
	// as a restart, however long the gap: reordering is the likelier story.
	seen(2, 40)
	clock = clock.Add(time.Minute)
	seen(2, 2)
	if s := stats(); s.SenderRestarts != 1 || s.DatagramsLate != 2 {
		t.Fatalf("young stream: restarts=%d late=%d, want 1/2", s.SenderRestarts, s.DatagramsLate)
	}
}

// TestUDPClientRestartMidEpochKeepsLateHonest is the end-to-end regression:
// a dcsnode-style client crashes mid-epoch and a replacement with the same
// sender id renumbers from seq 1. DatagramsLate must stay honest instead of
// branding the entire post-restart stream late.
func TestUDPClientRestartMidEpochKeepsLateHonest(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{RestartQuiet: 5 * time.Millisecond})

	dial := func() *BatchingUDPClient {
		t.Helper()
		c, err := DialUDP(srv.Addr(), UDPClientConfig{SenderID: 9, FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	push := func(c *BatchingUDPClient, router, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.Send(AlignedDigest{RouterID: router, Epoch: 1, Bitmap: randomVector(uint64(router*1000+i), 64)}); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// First incarnation sends 80 one-frame datagrams (past restartSeqMax),
	// then "crashes" without a clean shutdown.
	c1 := dial()
	push(c1, 1, 80)
	waitFor(t, 5*time.Second, func() bool { return len(got()) == 80 })
	c1.Close()

	// The replacement process comes up after a quiet gap and renumbers from 1.
	time.Sleep(50 * time.Millisecond)
	c2 := dial()
	defer c2.Close()
	push(c2, 2, 40)
	waitFor(t, 5*time.Second, func() bool { return len(got()) == 120 })

	s := srv.Stats().Snapshot()
	if s.SenderRestarts != 1 {
		t.Fatalf("SenderRestarts=%d, want 1", s.SenderRestarts)
	}
	if s.DatagramsLate != 0 {
		t.Fatalf("DatagramsLate=%d after restart, want 0 (post-restart stream miscounted as late)", s.DatagramsLate)
	}
}

// TestUDPFlushTimer proves a lone buffered frame does not sit forever when
// the send rate is too low to fill a datagram.
func TestUDPFlushTimer(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{})
	c, err := DialUDP(srv.Addr(), UDPClientConfig{FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(AlignedDigest{RouterID: 3, Epoch: 2, Bitmap: randomVector(9, 128)}); err != nil {
		t.Fatal(err)
	}
	// No explicit Flush: the timer must emit it.
	waitFor(t, 2*time.Second, func() bool { return len(got()) == 1 })
}

func TestUDPCloseFlushesAndSticks(t *testing.T) {
	srv, got := collectUDP(t, UDPServerConfig{})
	c, err := DialUDP(srv.Addr(), UDPClientConfig{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(AlignedDigest{RouterID: 8, Epoch: 1, Bitmap: randomVector(3, 128)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(got()) == 1 })
	if err := c.Send(AlignedDigest{RouterID: 9, Epoch: 1, Bitmap: randomVector(4, 128)}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
