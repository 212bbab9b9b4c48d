package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// collectServer starts a server that records every aligned digest's
// (RouterID, Epoch) pair.
type collectServer struct {
	mu   sync.Mutex
	got  map[[2]int]bool
	srv  *Server
	addr string
}

func startCollect(t *testing.T, addr string, cfg ServerConfig) *collectServer {
	t.Helper()
	cs := &collectServer{got: map[[2]int]bool{}}
	srv, err := ServeConfig(addr, func(m Message, _ net.Addr) {
		if d, ok := m.(AlignedDigest); ok {
			cs.mu.Lock()
			cs.got[[2]int{d.RouterID, d.Epoch}] = true
			cs.mu.Unlock()
		}
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs.srv, cs.addr = srv, srv.Addr()
	return cs
}

func (cs *collectServer) count() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.got)
}

func (cs *collectServer) waitFor(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for cs.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d digests arrived", cs.count(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReconnectingClientDeliversAcrossRestart is the acceptance scenario: a
// collector keeps sending while its center is down for a restart; every
// digest still arrives once the center is back on the same address.
func TestReconnectingClientDeliversAcrossRestart(t *testing.T) {
	cs := startCollect(t, "127.0.0.1:0", ServerConfig{})
	addr := cs.addr

	client := NewReconnectingClient(addr, ReconnectConfig{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
	})
	defer client.Close()

	// Epoch 1 lands on the first server incarnation.
	for r := 0; r < 4; r++ {
		if err := client.Send(AlignedDigest{RouterID: r, Epoch: 1, Bitmap: randomVector(uint64(r), 256)}); err != nil {
			t.Fatal(err)
		}
	}
	if left := client.Flush(5 * time.Second); left != 0 {
		t.Fatalf("%d digests stuck before restart", left)
	}
	cs.waitFor(t, 4, 5*time.Second)

	// Forced center restart. The pause lets the client's connection
	// monitor observe the FIN so no epoch-2 frame is written into a dead
	// socket.
	if err := cs.srv.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	// Epoch 2 is sent entirely while the center is down: it buffers.
	for r := 0; r < 4; r++ {
		if err := client.Send(AlignedDigest{RouterID: r, Epoch: 2, Bitmap: randomVector(uint64(10+r), 256)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := client.Flush(300 * time.Millisecond); n == 0 {
		t.Fatal("digests claimed delivered while center was down")
	}

	// Center restarts on the same address; the buffered epoch drains.
	cs2 := startCollect(t, addr, ServerConfig{})
	defer cs2.srv.Close()
	if left := client.Flush(10 * time.Second); left != 0 {
		t.Fatalf("%d digests undelivered after restart", left)
	}
	cs2.waitFor(t, 4, 5*time.Second)
	for r := 0; r < 4; r++ {
		cs2.mu.Lock()
		ok := cs2.got[[2]int{r, 2}]
		cs2.mu.Unlock()
		if !ok {
			t.Fatalf("router %d epoch 2 digest lost across restart", r)
		}
	}
	if n := client.Stats().Reconnects.Load(); n < 1 {
		t.Fatalf("reconnect counter %d, want >= 1", n)
	}
}

func TestReconnectingClientBufferFull(t *testing.T) {
	// No server listening: everything buffers until the cap.
	client := NewReconnectingClient("127.0.0.1:1", ReconnectConfig{
		Buffer:         2,
		DialTimeout:    50 * time.Millisecond,
		InitialBackoff: 10 * time.Millisecond,
	})
	defer client.Close()
	var fullErr error
	for i := 0; i < 10 && fullErr == nil; i++ {
		fullErr = client.Send(AlignedDigest{RouterID: i, Epoch: 1, Bitmap: randomVector(1, 64)})
	}
	if !errors.Is(fullErr, ErrBufferFull) {
		t.Fatalf("want ErrBufferFull, got %v", fullErr)
	}
	if n := client.Stats().DroppedSends.Load(); n < 1 {
		t.Fatalf("dropped counter %d", n)
	}
}

func TestReconnectingClientClose(t *testing.T) {
	client := NewReconnectingClient("127.0.0.1:1", ReconnectConfig{
		DialTimeout:    50 * time.Millisecond,
		InitialBackoff: 10 * time.Millisecond,
	})
	client.Send(AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: randomVector(1, 64)})
	abandoned, err := client.Close()
	if err != nil {
		t.Fatal(err)
	}
	if abandoned != 1 {
		t.Fatalf("Close reported %d abandoned messages, want 1", abandoned)
	}
	if err := client.Send(AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(1, 64)}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("send on closed client: %v", err)
	}
	if n := client.Stats().AbandonedOnClose.Load(); n != 1 {
		t.Fatalf("pending message not counted abandoned: %d", n)
	}
	if n := client.Stats().DroppedSends.Load(); n != 0 {
		t.Fatalf("abandoned message leaked into DroppedSends: %d", n)
	}
	// Close is idempotent and reports nothing the second time.
	if abandoned, err := client.Close(); err != nil || abandoned != 0 {
		t.Fatalf("second Close = (%d, %v), want (0, nil)", abandoned, err)
	}
}

// TestFlushWakesBackoffImmediately: a sender deep in a backoff sleep must
// retry as soon as Flush is called, not after the rest of the sleep — the
// backoff here is far longer than the Flush timeout, so delivery within it
// proves the wake-up happened.
func TestFlushWakesBackoffImmediately(t *testing.T) {
	// Learn a free port, then leave it closed so the first dials fail and
	// the backoff climbs to its 30s cap.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	client := NewReconnectingClient(addr, ReconnectConfig{
		DialTimeout:    100 * time.Millisecond,
		InitialBackoff: 30 * time.Second,
		MaxBackoff:     30 * time.Second,
	})
	defer client.Close()
	if err := client.Send(AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: randomVector(1, 64)}); err != nil {
		t.Fatal(err)
	}
	// Let the sender fail its dial and enter the 30s backoff.
	time.Sleep(300 * time.Millisecond)

	cs := startCollect(t, addr, ServerConfig{})
	defer cs.srv.Close()
	start := time.Now()
	if left := client.Flush(5 * time.Second); left != 0 {
		t.Fatalf("%d messages still pending after Flush with center up", left)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("flush took %v — backoff sleep was not interrupted", took)
	}
	cs.waitFor(t, 1, 2*time.Second)
}

// TestBackoffSurvivesKickStorm is the stale-kick regression test: Flush
// calls that land while the sender is NOT sleeping (here: idle in head()
// with an empty queue) leave a remembered wake token behind. That token must
// be consumed by the next dial attempt, not spent cutting short the backoff
// sleep after that dial fails — or a periodic Flush degrades capped
// exponential backoff into a hot dial loop against a down center.
func TestBackoffSurvivesKickStorm(t *testing.T) {
	client := NewReconnectingClient("127.0.0.1:1", ReconnectConfig{
		DialTimeout:    50 * time.Millisecond,
		InitialBackoff: 10 * time.Second,
		MaxBackoff:     10 * time.Second,
	})
	defer client.Close()

	// Storm of flushes before anything is queued: each returns immediately
	// (nothing pending) but posts a kick; the buffered channel retains one.
	for i := 0; i < 50; i++ {
		client.Flush(0)
	}
	if err := client.Send(AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: randomVector(1, 64)}); err != nil {
		t.Fatal(err)
	}
	// The sender dials once (refused), then must sit out the full 10s
	// backoff: the stale token may not buy it a second attempt.
	deadline := time.Now().Add(2 * time.Second)
	for client.Stats().DialAttempts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sender never attempted a dial")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(700 * time.Millisecond)
	if n := client.Stats().DialAttempts.Load(); n != 1 {
		t.Fatalf("%d dial attempts within the 10s backoff window, want 1 — a stale Flush kick cut the sleep short", n)
	}
}

// TestFlushReportsAbandonedOnClose: a Flush blocked on an unreachable center
// must wake promptly when Close runs and report the abandoned messages as
// undelivered — the old implementation busy-polled and, worse, returned 0
// because Close had emptied the queue it was counting.
func TestFlushReportsAbandonedOnClose(t *testing.T) {
	client := NewReconnectingClient("127.0.0.1:1", ReconnectConfig{
		DialTimeout:    50 * time.Millisecond,
		InitialBackoff: 10 * time.Second,
		MaxBackoff:     10 * time.Second,
	})
	const n = 5
	for i := 0; i < n; i++ {
		if err := client.Send(AlignedDigest{RouterID: i, Epoch: 1, Bitmap: randomVector(uint64(i+1), 64)}); err != nil {
			t.Fatal(err)
		}
	}
	res := make(chan int, 1)
	go func() { res <- client.Flush(10 * time.Second) }()
	time.Sleep(50 * time.Millisecond)
	abandoned, err := client.Close()
	if err != nil || abandoned != n {
		t.Fatalf("Close = (%d, %v), want (%d, nil)", abandoned, err, n)
	}
	select {
	case left := <-res:
		if left != n {
			t.Fatalf("Flush reported %d undelivered, want %d — Close's abandonment must not read as delivery", left, n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush still blocked 2s after Close — the wait never woke")
	}
	// A Flush issued after Close reports the same abandonment immediately.
	if left := client.Flush(0); left != n {
		t.Fatalf("post-Close Flush = %d, want %d", left, n)
	}
}

// scriptedConn is a net.Conn that counts its Writes and fails them from a
// chosen call number on, part-way through the bytes; the embedded nil
// net.Conn panics on anything a test should not touch.
type scriptedConn struct {
	net.Conn
	writes   int
	failFrom int // fail writes numbered >= failFrom; 0 means never
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	c.writes++
	if c.failFrom > 0 && c.writes >= c.failFrom {
		return len(p) / 2, errors.New("synthetic connection failure")
	}
	return len(p), nil
}

// TestSendStickyAfterWriteFailure is the fail-fast regression test: a frame
// cut short mid-payload leaves the byte stream desynchronized, so every
// later Send must refuse with ErrClientBroken instead of writing frames the
// center will misparse.
func TestSendStickyAfterWriteFailure(t *testing.T) {
	// The frame's one write dies half-way: the wire now holds a partial frame.
	conn := &scriptedConn{failFrom: 1}
	c := &Client{conn: conn, stats: new(Stats)}
	d := AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(1, 256)}
	err := c.Send(d)
	if err == nil || errors.Is(err, ErrClientBroken) {
		t.Fatalf("first failure should surface the raw write error, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Send(d); !errors.Is(err, ErrClientBroken) {
			t.Fatalf("Send after mid-payload failure: %v, want ErrClientBroken", err)
		}
	}
	if n := c.Stats().FramesOut.Load(); n != 0 {
		t.Fatalf("broken client counted %d frames out", n)
	}
	if conn.writes != 1 {
		t.Fatalf("broken client wrote to its connection %d times, want only the write that failed", conn.writes)
	}

	// An encoding rejection never touches the wire, so it must NOT latch:
	// the stream is still aligned and the next valid digest goes through.
	conn2 := &scriptedConn{}
	c2 := &Client{conn: conn2, stats: new(Stats)}
	if err := c2.Send(AlignedDigest{RouterID: 2}); err == nil || errors.Is(err, ErrClientBroken) {
		t.Fatalf("nil bitmap: %v", err)
	}
	if conn2.writes != 0 {
		t.Fatalf("a rejected digest cost the connection %d writes", conn2.writes)
	}
	// A frame is one write — header and payload apart would be two TCP
	// segments and two chances to tear it — from a buffer the client keeps.
	var m Message = d
	allocs := testing.AllocsPerRun(10, func() {
		if err := c2.Send(m); err != nil {
			t.Fatalf("encoding rejection latched the client: %v", err)
		}
	})
	if conn2.writes != 11 { // AllocsPerRun makes one warm-up call
		t.Fatalf("11 sends made %d writes, want one per frame", conn2.writes)
	}
	if allocs != 0 {
		t.Fatalf("a warm Send allocates %v times, want 0", allocs)
	}
}

// writeLog is a net.Conn that records every Write — a copy of the bytes, and
// which buffer they came from — on its way to the real connection.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	starts []*byte
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.starts = append(c.starts, &p[0])
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestReconnectingClientOneWritePerFrame: the queued sender, too, hands the
// kernel each frame whole, out of one reused buffer.
func TestReconnectingClientOneWritePerFrame(t *testing.T) {
	cs := startCollect(t, "127.0.0.1:0", ServerConfig{})
	defer cs.srv.Close()
	var log *writeLog
	client := newReconnectingClient(cs.addr, ReconnectConfig{}, func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		log = &writeLog{Conn: conn}
		return log, err
	})
	defer client.Close()

	const n = 5
	var frames [n][]byte
	for r := range frames {
		d := AlignedDigest{RouterID: r, Epoch: 1, Bitmap: randomVector(uint64(r+1), 256)}
		frames[r] = encodeFrame(t, d)
		if err := client.Send(d); err != nil {
			t.Fatal(err)
		}
	}
	if left := client.Flush(5 * time.Second); left != 0 {
		t.Fatalf("%d digests undelivered", left)
	}
	cs.waitFor(t, n, 5*time.Second)

	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.writes) != n {
		t.Fatalf("%d frames took %d writes, want one each", n, len(log.writes))
	}
	for i, w := range log.writes {
		if !bytes.Equal(w, frames[i]) {
			t.Fatalf("write %d carried %d bytes, want frame %d whole (%d bytes)", i, len(w), i, len(frames[i]))
		}
		if log.starts[i] != log.starts[0] {
			t.Fatalf("write %d came from a new buffer; the sender keeps one", i)
		}
	}
}

// TestServerReapsIdleConnections: a collector that dials and goes silent is
// disconnected by the read deadline instead of holding a goroutine forever.
func TestServerReapsIdleConnections(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", func(Message, net.Addr) {},
		ServerConfig{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server should close us; a blocking read observes it.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Fatal("server never closed the idle connection")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().ConnsReaped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reap not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBadFrameClosesOnlyOffender: one collector sends garbage mid-stream;
// its connection dies and is counted, while another collector's digests
// keep flowing on the same server.
func TestBadFrameClosesOnlyOffender(t *testing.T) {
	cs := startCollect(t, "127.0.0.1:0", ServerConfig{})
	defer cs.srv.Close()

	good, err := Dial(cs.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Send(AlignedDigest{RouterID: 0, Epoch: 1, Bitmap: randomVector(1, 256)}); err != nil {
		t.Fatal(err)
	}

	bad, err := net.Dial("tcp", cs.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	// A valid frame, then garbage: the server must take the first frame
	// and kill the connection on the second.
	if err := Write(bad, AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(2, 256)}); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Write([]byte("this is not a DCS1 frame........")); err != nil {
		t.Fatal(err)
	}
	// Server closes the offender; observe the FIN.
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := bad.Read(one[:]); err == nil {
		t.Fatal("server kept the corrupted connection open")
	}
	if n := cs.srv.Stats().BadFrames.Load(); n != 1 {
		t.Fatalf("bad frame counter %d, want 1", n)
	}

	// The good collector is unaffected.
	if err := good.Send(AlignedDigest{RouterID: 2, Epoch: 1, Bitmap: randomVector(3, 256)}); err != nil {
		t.Fatalf("good connection broken by someone else's bad frame: %v", err)
	}
	cs.waitFor(t, 3, 5*time.Second)
	if n := cs.srv.Stats().FramesIn.Load(); n != 3 {
		t.Fatalf("frames in = %d, want 3", n)
	}
}

// TestTornStreamIsNotABadFrame: a collector whose connection dies inside a
// frame — header sent, half the payload, close — did not lie to the center,
// so it costs no BadFrames count and no gate strike; the same bytes followed
// by garbage where the rest of the payload belonged do. The stream decoder
// has to keep that distinction, which reading the connection into a buffer
// and decoding the buffer would lose.
func TestTornStreamIsNotABadFrame(t *testing.T) {
	cs := startCollect(t, "127.0.0.1:0", ServerConfig{Gate: GateConfig{MaxStrikes: 3}})
	defer cs.srv.Close()
	frame := encodeFrame(t, AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(1, 256)})
	torn := frame[:headerLen+(len(frame)-headerLen)/2]

	// send writes b, ends the stream, and waits for the server to hang up —
	// which it does after it has counted whatever it is going to count.
	send := func(b []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", cs.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var one [1]byte
		if _, err := conn.Read(one[:]); err == nil {
			t.Fatal("server sent data on a one-way channel")
		}
	}

	send(torn)
	if s := cs.srv.Stats().Snapshot(); s.BadFrames != 0 || s.Strikes != 0 {
		t.Fatalf("a connection that died mid-frame cost bad=%d strikes=%d, want 0/0", s.BadFrames, s.Strikes)
	}
	send(append(append([]byte(nil), torn...), bytes.Repeat([]byte{0xAA}, len(frame)-len(torn))...))
	if s := cs.srv.Stats().Snapshot(); s.BadFrames != 1 || s.Strikes != 1 {
		t.Fatalf("a frame completed with garbage cost bad=%d strikes=%d, want 1/1", s.BadFrames, s.Strikes)
	}
	if n := cs.srv.Stats().FramesIn.Load(); n != 0 {
		t.Fatalf("%d frames delivered from two connections that never sent a whole one", n)
	}
}
