package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// UDPServerConfig tunes the analysis-center datagram sink. The zero value is
// usable.
type UDPServerConfig struct {
	// ReadBuffer is the kernel receive buffer size requested for the socket
	// (best effort — the kernel may clamp it). A deep buffer is what absorbs
	// a fleet of collectors flushing at an epoch boundary; the default is
	// 4 MiB. Negative leaves the kernel default untouched.
	ReadBuffer int
	// Stats, when non-nil, receives the server's counters. Several servers
	// may share one Stats.
	Stats *Stats
	// Gate, when enabled (Rate or MaxStrikes set), rate-limits and
	// quarantines misbehaving senders by remote host — the same gate the
	// TCP server runs, with datagrams as the unit. The zero value keeps
	// the server gateless.
	Gate GateConfig
	// MaxPeers bounds the per-sender sequence-accounting map. Sender ids
	// live in the datagram envelope, which a sprayer can forge past the
	// host-keyed gate, so without a bound the map is a remote memory leak:
	// one entry per distinct id, forever. At the cap, entries idle longer
	// than the gate's quarantine cooldown are expired first; if none are,
	// the least-recently-seen entry is evicted. Evictions are counted in
	// Stats.PeerEvictions. Zero means 65536 (the gate's own tracking cap).
	MaxPeers int
	// RestartQuiet is the minimum silence from a sender before a sequence
	// number far below its high-water mark is read as a collector restart
	// (seq renumbers from 1) rather than reordering, resetting the mark
	// instead of miscounting the whole post-restart stream as late. Zero
	// means 1 second; negative disables restart detection.
	RestartQuiet time.Duration
}

func (c UDPServerConfig) withDefaults() UDPServerConfig {
	if c.ReadBuffer == 0 {
		c.ReadBuffer = 4 << 20
	}
	if c.Stats == nil {
		c.Stats = new(Stats)
	}
	if c.MaxPeers <= 0 {
		c.MaxPeers = maxTrackedSenders
	}
	if c.RestartQuiet == 0 {
		c.RestartQuiet = time.Second
	}
	return c
}

// UDPServer is the analysis center's datagram sink: the lossy, cheap
// counterpart of Server. Every datagram passing the prefilter has its frames
// decoded and fed to the handler; sequence numbers per sender feed the loss
// and reordering counters so operators can see how degraded the ingest is,
// while the center's quorum gate keeps the verdicts honest under that loss.
type UDPServer struct {
	conn    *net.UDPConn
	handler BatchHandler
	cfg     UDPServerConfig
	gate    *senderGate // nil when the gate is disabled
	// peerTTL is the idle horizon after which a peer entry may be expired
	// under cap pressure — tied to the gate's quarantine cooldown so a
	// sender's sequence standing outlives any sentence it is serving.
	peerTTL time.Duration
	// now is the sequence accountant's clock, swappable so tests can script
	// restarts and expiry instead of sleeping through them.
	now func() time.Time

	mu    sync.Mutex
	peers map[uint32]*peerSeq // sequence accounting per sender; guarded by mu

	wg sync.WaitGroup
}

// peerSeq is one sender's sequence-accounting state.
type peerSeq struct {
	// seq is the highest sequence number seen from the sender.
	seq uint64
	// last is when the sender's previous datagram arrived; restart detection
	// and cap eviction both key off it.
	last time.Time
}

// restartSeqMax bounds how far into a renumbered stream a restart can still
// be recognized: a freshly restarted collector's first surviving datagram has
// a small sequence number (1 plus any leading losses), while a reordered
// datagram from the old stream carries a number near the high-water mark. The
// mark must also be at least this far above the arrival, so the two regimes
// cannot overlap on a young stream.
const restartSeqMax = 64

// BatchHandler consumes the frames of one datagram that decoded cleanly, in
// datagram order: a corrupt frame ends the batch, and the frames before it
// are still delivered. ms is only valid during the call — the server reuses
// it for the next datagram — but the messages in it alias nothing and may be
// kept.
type BatchHandler func(ms []Message, from net.Addr)

// ServeUDP starts a datagram server on addr (e.g. "127.0.0.1:0" to pick a
// free port) with default settings.
func ServeUDP(addr string, handler Handler) (*UDPServer, error) {
	return ServeUDPConfig(addr, handler, UDPServerConfig{})
}

// ServeUDPConfig is ServeUDPBatch for a handler that takes one message at a
// time: it is called once per frame, in datagram order.
func ServeUDPConfig(addr string, handler Handler, cfg UDPServerConfig) (*UDPServer, error) {
	if handler == nil {
		return nil, errors.New("transport: nil handler")
	}
	return ServeUDPBatch(addr, func(ms []Message, from net.Addr) {
		for _, m := range ms {
			handler(m, from)
		}
	}, cfg)
}

// ServeUDPBatch starts a datagram server on addr that hands each datagram's
// decoded frames to handler in one call.
func ServeUDPBatch(addr string, handler BatchHandler, cfg UDPServerConfig) (*UDPServer, error) {
	if handler == nil {
		return nil, errors.New("transport: nil handler")
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %s: %w", addr, err)
	}
	cfg = cfg.withDefaults()
	if cfg.ReadBuffer > 0 {
		//dcslint:ignore errcrit best-effort socket tuning; a refused or clamped buffer degrades burst absorption, not correctness, and loss stays visible in DatagramsLost
		_ = conn.SetReadBuffer(cfg.ReadBuffer)
	}
	s := &UDPServer{
		conn:    conn,
		handler: handler,
		cfg:     cfg,
		gate:    newSenderGate(cfg.Gate, cfg.Stats),
		peerTTL: cfg.Gate.withDefaults().Cooldown,
		now:     time.Now,
		peers:   make(map[uint32]*peerSeq),
	}
	s.wg.Add(1)
	go s.readLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *UDPServer) Addr() string { return s.conn.LocalAddr().String() }

// Stats returns the server's counters (the shared Stats when one was passed
// in UDPServerConfig).
func (s *UDPServer) Stats() *Stats { return s.cfg.Stats }

// QuarantinedSenders lists sender hosts currently quarantined by the
// admission gate (nil with the gate disabled).
func (s *UDPServer) QuarantinedSenders() []string { return s.gate.Quarantined() }

func (s *UDPServer) readLoop() {
	defer s.wg.Done()
	// One buffer for the socket's whole life: a decoded message aliases
	// nothing in it, so the next datagram may overwrite the last. The batch
	// slice is likewise reused from datagram to datagram.
	buf := make([]byte, maxDatagram)
	var batch []Message
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		batch = s.handleDatagram(buf[:n], from, batch[:0])
	}
}

// handleDatagram runs one received datagram through prefilter, sequence
// accounting, and frame decode, and hands the frames that decoded to the
// handler in one call — even when a later frame in the same datagram is
// corrupt. The frames are collected in batch, whose grown slice is returned,
// its references dropped, for the next datagram.
func (s *UDPServer) handleDatagram(buf []byte, from net.Addr, batch []Message) []Message {
	sender := senderKey(from)
	if !prefilterDatagram(buf) {
		s.cfg.Stats.DatagramsRejected.Add(1)
		// Garbage counts against the sender even when quarantined — a
		// sprayer that keeps spraying keeps its standing bad, and honest
		// stray traffic never reaches MaxStrikes.
		s.gate.strike(sender)
		return batch
	}
	if !s.gate.admit(sender) {
		// Quarantined or over the rate limit: the datagram is dropped
		// before decode, counted in QuarantineDrops.
		return batch
	}
	s.cfg.Stats.DatagramsIn.Add(1)
	s.accountSeq(parseDatagramHeader(buf))
	_, decoded, err := decodeDatagram(buf, func(m Message) { batch = append(batch, m) })
	if decoded > 0 {
		s.cfg.Stats.FramesIn.Add(int64(decoded))
		s.handler(batch, from)
	}
	s.cfg.Stats.FramesPerDatagram.Observe(float64(decoded))
	if err != nil {
		s.cfg.Stats.BadFrames.Add(1)
		s.gate.strike(sender)
	}
	clear(batch) // the reused slice must not pin this datagram's digests
	return batch
}

// accountSeq updates the per-sender sequence high-water mark: gaps above it
// count as lost datagrams, arrivals at or below it as late (reordered or
// duplicated). Senders number from 1, so a first contact at seq N also
// reveals N-1 leading losses.
//
// Two exceptions keep the counters honest at scale. A restarted collector
// renumbers from 1; without detection its entire post-restart stream would
// count late against the dead process's mark, so a small sequence number
// arriving far below the mark after RestartQuiet of silence resets the mark
// (counted in SenderRestarts) instead. And the map itself is bounded by
// MaxPeers — sender ids are attacker-forgeable envelope bytes — with idle
// entries expired first and the least-recently-seen evicted otherwise
// (counted in PeerEvictions).
func (s *UDPServer) accountSeq(h DatagramHeader) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.peers[h.Sender]
	if !ok {
		if len(s.peers) >= s.cfg.MaxPeers {
			s.evictPeersLocked(now)
		}
		s.peers[h.Sender] = &peerSeq{seq: h.Seq, last: now}
		if h.Seq > 1 {
			s.cfg.Stats.DatagramsLost.Add(int64(h.Seq - 1))
		}
		return
	}
	if h.Seq > p.seq {
		if h.Seq > p.seq+1 {
			s.cfg.Stats.DatagramsLost.Add(int64(h.Seq - p.seq - 1))
		}
		p.seq, p.last = h.Seq, now
		return
	}
	if s.cfg.RestartQuiet > 0 && h.Seq <= restartSeqMax && p.seq >= h.Seq+restartSeqMax &&
		now.Sub(p.last) >= s.cfg.RestartQuiet {
		// The collector restarted: its process died (the quiet gap) and came
		// back numbering from 1. Reset the mark to the new stream; the
		// renumbered datagram is a fresh first contact, not a late one, and
		// its leading gap means post-restart losses just like a first contact.
		s.cfg.Stats.SenderRestarts.Add(1)
		if h.Seq > 1 {
			s.cfg.Stats.DatagramsLost.Add(int64(h.Seq - 1))
		}
		p.seq, p.last = h.Seq, now
		return
	}
	p.last = now
	s.cfg.Stats.DatagramsLate.Add(1)
}

// evictPeersLocked makes room in the peers map: every entry idle past the
// TTL (the gate's quarantine cooldown) is expired; when nothing is idle the
// single least-recently-seen entry goes. An evicted sender that returns is a
// first contact again — its leading-loss estimate restarts, which the Lost
// counter's "estimate, not ledger" contract allows. Caller holds s.mu.
func (s *UDPServer) evictPeersLocked(now time.Time) {
	removed := int64(0)
	var lruKey uint32
	var lruAt time.Time
	found := false
	for k, p := range s.peers {
		if s.peerTTL > 0 && now.Sub(p.last) >= s.peerTTL {
			delete(s.peers, k)
			removed++
			continue
		}
		if !found || p.last.Before(lruAt) {
			lruKey, lruAt, found = k, p.last, true
		}
	}
	if removed == 0 && found {
		delete(s.peers, lruKey)
		removed = 1
	}
	s.cfg.Stats.PeerEvictions.Add(removed)
}

// trackedPeers reports how many senders currently have sequence-accounting
// state (bounded by MaxPeers).
func (s *UDPServer) trackedPeers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// Close stops the read loop and waits for in-flight handlers to drain.
func (s *UDPServer) Close() error {
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

// UDPClientConfig tunes a BatchingUDPClient. The zero value is usable
// (sender id 0 is legal, just indistinct).
type UDPClientConfig struct {
	// SenderID identifies this collector in every datagram header; the
	// server keys loss accounting by it, so give each collector a distinct
	// id.
	SenderID uint32
	// MaxDatagramBytes caps each datagram, header included. Zero means 1400
	// (safe under common path MTUs — a fragmented datagram is lost whole if
	// any fragment drops); values above 65507 are clamped to it. Raise it
	// toward the ceiling on loopback or jumbo-frame fabrics to batch harder.
	MaxDatagramBytes int
	// FlushInterval bounds how long a frame may sit buffered before the
	// datagram is sent anyway. Zero means 2ms; negative disables the timer
	// (explicit Flush only).
	FlushInterval time.Duration
	// Stats, when non-nil, receives the client's counters.
	Stats *Stats
}

func (c UDPClientConfig) withDefaults() UDPClientConfig {
	if c.MaxDatagramBytes == 0 {
		c.MaxDatagramBytes = 1400
	}
	if c.MaxDatagramBytes > maxDatagram {
		c.MaxDatagramBytes = maxDatagram
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.Stats == nil {
		c.Stats = new(Stats)
	}
	return c
}

// BatchingUDPClient packs digest frames into datagrams: Send appends to the
// current datagram and a full buffer (or the flush timer, or an explicit
// Flush) emits it as a single write — one syscall for many digests, which is
// the entire point of the UDP path. Delivery is fire-and-forget: transmit
// failures are counted in DroppedSends, never returned from Send, because a
// lossy transport that also demanded per-message error handling would have
// the worst properties of both paths. Callers that cannot tolerate loss use
// TCP.
type BatchingUDPClient struct {
	conn net.Conn
	cfg  UDPClientConfig

	mu     sync.Mutex
	buf    []byte // current datagram: header already laid down; guarded by mu
	frames int    // frames in buf; guarded by mu
	seq    uint64 // datagrams emitted; guarded by mu
	closed bool   // guarded by mu

	stop chan struct{}
	done chan struct{}
}

// DialUDP creates a batching client for the given server address. No
// handshake happens — UDP "dialing" only fixes the destination — so the
// server may start later; datagrams sent before it binds are simply lost,
// like any others.
func DialUDP(addr string, cfg UDPClientConfig) (*BatchingUDPClient, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxDatagramBytes < udpHeaderLen+headerLen {
		return nil, fmt.Errorf("transport: datagram budget %d cannot hold any frame", cfg.MaxDatagramBytes)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial udp %s: %w", addr, err)
	}
	c := &BatchingUDPClient{
		conn: conn,
		cfg:  cfg,
		// Room for a full datagram plus the frame that overflowed it, so a
		// Send within the budget never reallocates.
		buf:  make([]byte, udpHeaderLen, 2*cfg.MaxDatagramBytes),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	putDatagramHeader(c.buf, DatagramHeader{Sender: cfg.SenderID})
	if cfg.FlushInterval > 0 {
		go c.flushLoop()
	} else {
		close(c.done)
	}
	return c, nil
}

// Stats returns the client's counters.
func (c *BatchingUDPClient) Stats() *Stats { return c.cfg.Stats }

// Send encodes one digest frame onto the end of the current datagram; if that
// overflows the budget, the frames staged before it are emitted and it opens
// the next datagram. Errors report only local conditions — a malformed
// digest, a frame too large for the datagram budget (use TCP for digests that
// big), or a closed client; transmit failures surface in Stats.DroppedSends,
// not here.
func (c *BatchingUDPClient) Send(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	staged := len(c.buf)
	buf, err := AppendFrame(c.buf, m)
	if err != nil {
		return err
	}
	if n := len(buf) - staged; udpHeaderLen+n > c.cfg.MaxDatagramBytes {
		return fmt.Errorf("transport: %d-byte frame exceeds the %d-byte datagram budget; raise MaxDatagramBytes or use the TCP path",
			n, c.cfg.MaxDatagramBytes)
	}
	if len(buf) > c.cfg.MaxDatagramBytes {
		c.flushLocked() // emits c.buf, which still ends where the staged frames do
		buf = append(c.buf, buf[staged:]...)
	}
	c.buf = buf
	c.frames++
	return nil
}

// Pending returns the number of frames buffered in the current datagram.
func (c *BatchingUDPClient) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames
}

// Flush emits the current datagram now; a no-op when nothing is buffered.
func (c *BatchingUDPClient) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	c.flushLocked()
	return nil
}

// flushLocked patches the count and sequence number into the staged header
// and hands the datagram to the kernel in one write. The buffer is reset
// either way: on a transmit failure the frames are dropped and counted,
// exactly like an in-flight datagram the network ate.
func (c *BatchingUDPClient) flushLocked() {
	if c.frames == 0 {
		return
	}
	c.seq++
	binary.LittleEndian.PutUint16(c.buf[6:], uint16(c.frames))
	binary.LittleEndian.PutUint64(c.buf[12:], c.seq)
	frames := c.frames
	_, err := c.conn.Write(c.buf)
	c.buf = c.buf[:udpHeaderLen]
	c.frames = 0
	if err != nil {
		c.cfg.Stats.DroppedSends.Add(int64(frames))
		return
	}
	c.cfg.Stats.DatagramsOut.Add(1)
	c.cfg.Stats.FramesOut.Add(int64(frames))
}

// flushLoop bounds buffered-frame latency when the caller's send rate is too
// low to fill datagrams.
func (c *BatchingUDPClient) flushLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.tickFlush()
		case <-c.stop:
			return
		}
	}
}

func (c *BatchingUDPClient) tickFlush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.flushLocked()
	}
}

// Close flushes any buffered frames and closes the socket. Closing an
// already-closed client returns nil.
func (c *BatchingUDPClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.flushLocked()
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done
	return c.conn.Close()
}
