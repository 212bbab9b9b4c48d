package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrBufferFull reports a ReconnectingClient whose resend buffer is at
// capacity; the message was dropped on the collector side.
var ErrBufferFull = errors.New("transport: reconnect buffer full")

// ErrClientClosed reports a Send on a closed ReconnectingClient.
var ErrClientClosed = errors.New("transport: client closed")

// ReconnectConfig tunes a ReconnectingClient. The zero value is usable.
type ReconnectConfig struct {
	// DialTimeout bounds each connection attempt. Zero means 2 seconds.
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write. Zero means 10 seconds;
	// negative disables the deadline.
	WriteTimeout time.Duration
	// InitialBackoff is the delay after the first failed dial; every
	// consecutive failure doubles it up to MaxBackoff, and any success
	// resets it. Zeros mean 50ms and 5s.
	InitialBackoff, MaxBackoff time.Duration
	// Buffer is the maximum number of undelivered messages held while the
	// center is unreachable. Zero means 1024. Digests are small (KBs), so a
	// deep buffer rides out a long center restart cheaply.
	Buffer int
	// Stats, when non-nil, receives the client's counters.
	Stats *Stats
}

func (c ReconnectConfig) withDefaults() ReconnectConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.InitialBackoff == 0 {
		c.InitialBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Buffer == 0 {
		c.Buffer = 1024
	}
	if c.Stats == nil {
		c.Stats = new(Stats)
	}
	return c
}

// ReconnectingClient is a collector-side client that survives analysis-center
// restarts: Send enqueues, a background sender dials with capped exponential
// backoff, and a message leaves the buffer only after its frame was written
// in full — a write cut short by a dying connection is retried on the next
// one. The protocol is one-way, so a reader goroutine watches each
// connection for the center's FIN/RST and marks it dead immediately instead
// of letting the next Send discover it a message too late.
//
// Delivery is at-least-once from the client's perspective: a frame fully
// handed to the kernel just as the center dies can still be lost (there are
// no application-level acks), but a center outage of any length between
// epochs loses nothing while the buffer has room.
type ReconnectingClient struct {
	addr string
	cfg  ReconnectConfig
	// dial is net.DialTimeout, except in tests that count the sender's writes.
	dial func(network, addr string, timeout time.Duration) (net.Conn, error)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message // guarded by mu
	closed bool      // guarded by mu
	// abandoned is how many enqueued messages Close threw away; a Flush
	// racing (or following) Close reports them instead of claiming
	// delivery. guarded by mu
	abandoned int

	closedCh chan struct{}
	done     chan struct{}
	// wakeCh kicks the sender out of a backoff sleep early (Flush posts to
	// it); buffered so a kick with no sleeper is remembered, not lost.
	wakeCh chan struct{}
}

// NewReconnectingClient starts a client for the given center address. It
// never dials eagerly, so a collector may start before its center.
func NewReconnectingClient(addr string, cfg ReconnectConfig) *ReconnectingClient {
	return newReconnectingClient(addr, cfg, net.DialTimeout)
}

func newReconnectingClient(addr string, cfg ReconnectConfig, dial func(network, addr string, timeout time.Duration) (net.Conn, error)) *ReconnectingClient {
	c := &ReconnectingClient{
		addr:     addr,
		cfg:      cfg.withDefaults(),
		dial:     dial,
		closedCh: make(chan struct{}),
		done:     make(chan struct{}),
		wakeCh:   make(chan struct{}, 1),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// Stats returns the client's counters.
func (c *ReconnectingClient) Stats() *Stats { return c.cfg.Stats }

// Send enqueues one message for delivery. It never blocks on the network:
// the only errors are a full buffer (message dropped, counted) or a closed
// client.
func (c *ReconnectingClient) Send(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if len(c.queue) >= c.cfg.Buffer {
		c.cfg.Stats.DroppedSends.Add(1)
		return fmt.Errorf("%w (%d messages)", ErrBufferFull, len(c.queue))
	}
	c.queue = append(c.queue, m)
	c.cond.Broadcast()
	return nil
}

// Pending returns the number of undelivered messages.
func (c *ReconnectingClient) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Flush blocks until every enqueued message has been written to the center,
// the client is closed, or the timeout elapses; it returns the number of
// messages not delivered. A sender mid-backoff is woken immediately, so a
// center that just came back is retried now rather than after the remaining
// backoff sleep.
//
// A zero return means every message enqueued before the call was written.
// If Close ran (before or during the Flush), the messages Close abandoned
// are counted in the return value — a concurrent Close empties the queue,
// but that is abandonment, not delivery, and Flush never reports it as
// success. The wait is condition-driven: Flush parks on the queue's
// condition variable and wakes on every pop-to-empty, Close, or timeout,
// never polling.
func (c *ReconnectingClient) Flush(timeout time.Duration) int {
	c.kick()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	done := make(chan struct{})
	defer close(done)
	expired := false
	go func() {
		select {
		case <-timer.C:
			c.mu.Lock()
			expired = true
			c.mu.Unlock()
			c.cond.Broadcast()
		case <-done:
		}
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) > 0 && !c.closed && !expired {
		c.cond.Wait()
	}
	return c.abandoned + len(c.queue)
}

// kick wakes a sender sleeping out a backoff; a no-op when none is.
func (c *ReconnectingClient) kick() {
	select {
	case c.wakeCh <- struct{}{}:
	default:
	}
}

// Close stops the sender and reports how many enqueued messages were never
// delivered (also counted in Stats.AbandonedOnClose); call Flush first when
// delivery matters. Closing an already-closed client returns 0, nil.
func (c *ReconnectingClient) Close() (abandoned int, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil
	}
	c.closed = true
	abandoned = len(c.queue)
	c.abandoned = abandoned
	c.queue = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if abandoned > 0 {
		c.cfg.Stats.AbandonedOnClose.Add(int64(abandoned))
	}
	close(c.closedCh)
	<-c.done
	return abandoned, nil
}

// head blocks until a message is available and returns it without removing
// it; ok is false once the client is closed.
func (c *ReconnectingClient) head() (m Message, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return nil, false
	}
	return c.queue[0], true
}

// pop removes the head after a successful write (or a permanent encoding
// rejection) and wakes Flush waiters once the queue drains.
func (c *ReconnectingClient) pop() {
	c.mu.Lock()
	if len(c.queue) > 0 {
		c.queue = c.queue[1:]
	}
	if len(c.queue) == 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// sleep waits for d, a Flush kick, or until the client closes; it reports
// whether the client is still open.
func (c *ReconnectingClient) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.wakeCh:
		return true
	case <-c.closedCh:
		return false
	}
}

func (c *ReconnectingClient) run() {
	defer close(c.done)
	var conn net.Conn
	var connDead chan struct{}
	defer func() {
		if conn != nil {
			//dcslint:ignore errcrit sender teardown; undelivered frames stay queued and are counted by Close, not lost here
			conn.Close()
		}
	}()
	backoff := c.cfg.InitialBackoff
	everConnected := false
	headAttempted := false // head already written (possibly partially) on a dead conn?
	var frame []byte       // encode buffer, reused so a frame is one write
	for {
		m, ok := c.head()
		if !ok {
			return
		}
		// A connection the monitor declared dead is useless even if a
		// write into its kernel buffer would "succeed".
		if conn != nil {
			select {
			case <-connDead:
				//dcslint:ignore errcrit the monitor already declared this connection dead; the head message stays queued for the next one
				conn.Close()
				conn = nil
			default:
			}
		}
		if conn == nil {
			// Drain a stale Flush kick posted while no sender was sleeping:
			// this dial attempt satisfies its intent, so it must not also
			// cut short the backoff sleep if the dial fails — a remembered
			// token would otherwise degrade capped backoff into a near-hot
			// dial loop under repeated Flush calls. Only kicks posted after
			// this point (i.e. while the sender actually sleeps) wake it.
			select {
			case <-c.wakeCh:
			default:
			}
			c.cfg.Stats.DialAttempts.Add(1)
			nc, err := c.dial("tcp", c.addr, c.cfg.DialTimeout)
			if err != nil {
				if !c.sleep(backoff) {
					return
				}
				backoff *= 2
				if backoff > c.cfg.MaxBackoff {
					backoff = c.cfg.MaxBackoff
				}
				continue
			}
			conn = nc
			connDead = make(chan struct{})
			go monitorConn(nc, connDead)
			if everConnected {
				c.cfg.Stats.Reconnects.Add(1)
			}
			everConnected = true
			backoff = c.cfg.InitialBackoff
			if headAttempted {
				c.cfg.Stats.Resends.Add(1)
			}
		}
		if c.cfg.WriteTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout)); err != nil {
				// Arming the deadline failed, so the fd is already dead:
				// writing undeadlined could block forever. Retry the head on
				// a fresh connection exactly like a failed write.
				//dcslint:ignore errcrit closing a connection that just failed SetWriteDeadline; the head message stays queued
				conn.Close()
				conn = nil
				continue
			}
		}
		f, err := AppendFrame(frame[:0], m)
		if err != nil {
			// Encoding rejection: no bytes hit the wire and no retry can
			// ever succeed, so drop the message instead of redialing
			// forever on an unserializable head.
			c.cfg.Stats.DroppedSends.Add(1)
			c.pop()
			continue
		}
		frame = f
		headAttempted = true
		if _, err := conn.Write(frame); err != nil {
			//dcslint:ignore errcrit the write already failed and is being retried; the close error adds nothing
			conn.Close()
			conn = nil
			continue // head stays queued; retried on the next connection
		}
		headAttempted = false
		c.cfg.Stats.FramesOut.Add(1)
		c.pop()
	}
}

// monitorConn watches a one-way connection for the peer closing it. The
// center never sends data, so any read completion means the connection is
// finished; closing dead lets the sender notice before its next write.
func monitorConn(conn net.Conn, dead chan struct{}) {
	var buf [1]byte
	conn.Read(buf[:])
	close(dead)
}
