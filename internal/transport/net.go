package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Handler consumes one decoded digest message at the analysis center.
// Handlers may be called concurrently, one goroutine per collector
// connection.
type Handler func(m Message, from net.Addr)

// ServerConfig tunes the analysis-center listener. The zero value is usable.
type ServerConfig struct {
	// ReadTimeout is the per-frame read deadline. A collector that goes
	// silent for longer than this is reaped so dead connections cannot
	// accumulate at a center terminating thousands of them. Zero means
	// 2 minutes; negative disables the deadline.
	ReadTimeout time.Duration
	// Stats, when non-nil, receives the server's counters. Several servers
	// may share one Stats.
	Stats *Stats
	// Gate, when enabled (Rate or MaxStrikes set), rate-limits and
	// quarantines misbehaving senders by remote host. The zero value keeps
	// the server gateless.
	Gate GateConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.Stats == nil {
		c.Stats = new(Stats)
	}
	return c
}

// Server is the analysis center's digest sink: it accepts collector
// connections and feeds every decoded frame to the handler.
type Server struct {
	ln      net.Listener
	handler Handler
	cfg     ServerConfig
	gate    *senderGate // nil when the gate is disabled

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
	wg     sync.WaitGroup
}

// Serve starts a server on addr (e.g. "127.0.0.1:0" to pick a free port)
// with default robustness settings.
func Serve(addr string, handler Handler) (*Server, error) {
	return ServeConfig(addr, handler, ServerConfig{})
}

// ServeConfig is Serve with explicit deadlines and stats.
func ServeConfig(addr string, handler Handler, cfg ServerConfig) (*Server, error) {
	if handler == nil {
		return nil, errors.New("transport: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
	s.gate = newSenderGate(s.cfg.Gate, s.cfg.Stats)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns the server's counters (the shared Stats when one was passed
// in ServerConfig).
func (s *Server) Stats() *Stats { return s.cfg.Stats }

// QuarantinedSenders lists sender hosts currently quarantined by the
// admission gate (nil with the gate disabled).
func (s *Server) QuarantinedSenders() []string { return s.gate.Quarantined() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//dcslint:ignore errcrit best-effort teardown of a connection the closed server never served; nothing was written
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.gate.blocked(senderKey(conn.RemoteAddr())) {
			// A quarantined collector does not even get to hold a
			// connection open; the refusal is counted as a quarantine drop.
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			//dcslint:ignore errcrit refusing a quarantined sender; nothing was read or written on this connection
			conn.Close()
			continue
		}
		s.cfg.Stats.ConnsAccepted.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn drains one collector connection. A malformed frame (ErrBadFrame,
// including CRC failures) or a read-deadline expiry closes only this
// connection — the center keeps serving every other collector, and the
// failure is visible in Stats rather than silent.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	accepted := time.Now()
	sender := senderKey(conn.RemoteAddr())
	defer func() {
		//dcslint:ignore errcrit read-side teardown; the center never writes to collectors, so a close error cannot lose data
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.cfg.Stats.ConnLifetimeSeconds.Observe(time.Since(accepted).Seconds())
	}()
	for {
		if s.cfg.ReadTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
				// The connection is already dead (closed fd); reap it like a
				// deadline expiry instead of reading from it undeadlined.
				s.cfg.Stats.ConnsReaped.Add(1)
				return
			}
		}
		m, err := Read(conn)
		if err != nil {
			switch {
			case errors.Is(err, ErrBadFrame):
				s.cfg.Stats.BadFrames.Add(1)
				s.gate.strike(sender)
			case errors.Is(err, os.ErrDeadlineExceeded):
				s.cfg.Stats.ConnsReaped.Add(1)
			}
			return // EOF, frame error, deadline, or connection closed
		}
		if !s.gate.admit(sender) {
			// Over the rate limit (or already quarantined): the frame is
			// dropped and the connection closed — the collector's retry path
			// meets the accept-time quarantine check until parole.
			return
		}
		s.cfg.Stats.FramesIn.Add(1)
		s.handler(m, conn.RemoteAddr())
	}
}

// Close stops accepting, closes all connections, and waits for the handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		//dcslint:ignore errcrit shutdown fan-out; per-connection close errors are unactionable and serveConn re-closes defensively
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ErrClientBroken reports a Send on a Client whose connection already
// failed a write. The wrapped error is the original failure.
var ErrClientBroken = errors.New("transport: client broken by earlier write failure")

// Client is a collector's connection to the analysis center. It fails fast:
// a write error leaves the client broken — the first failure is latched and
// every later Send returns ErrClientBroken wrapping it, because a frame cut
// short mid-payload desynchronizes the byte stream and every subsequent
// frame would arrive at the center as a bad frame. Use ReconnectingClient
// for a collector that must ride out center restarts.
type Client struct {
	mu           sync.Mutex
	conn         net.Conn      // guarded by mu
	writeTimeout time.Duration // guarded by mu
	err          error         // guarded by mu; first write failure, sticky
	frame        []byte        // guarded by mu; Send's encode buffer, reused so a frame is one write
	stats        *Stats
}

// Dial connects to an analysis center with the given timeout (zero means
// 5 seconds).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, writeTimeout: 10 * time.Second, stats: new(Stats)}, nil
}

// SetWriteTimeout bounds every subsequent Send (zero or negative disables
// the deadline; the default is 10 seconds).
func (c *Client) SetWriteTimeout(d time.Duration) {
	c.mu.Lock()
	c.writeTimeout = d
	c.mu.Unlock()
}

// Send ships one digest message; safe for concurrent use. A stalled or dead
// center fails the write within the write timeout instead of blocking the
// collector forever. After any write failure the client is broken: the
// connection may hold a partial frame, so later Sends fail with
// ErrClientBroken instead of appending into a desynchronized stream.
func (c *Client) Send(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return fmt.Errorf("%w: %w", ErrClientBroken, c.err)
	}
	if c.writeTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			// The fd is already dead; no bytes were written, but nothing can
			// be written safely either.
			c.err = err
			return fmt.Errorf("transport: arm write deadline: %w", err)
		}
	}
	frame, err := AppendFrame(c.frame[:0], m)
	if err != nil {
		// The encoder rejected the digest before any byte reached the
		// connection: the stream is still frame-aligned, the client usable.
		return err
	}
	c.frame = frame
	// One write per frame: header and payload in separate writes would be
	// two segments under TCP_NODELAY and two chances to tear the frame.
	if _, err := c.conn.Write(frame); err != nil {
		c.err = fmt.Errorf("transport: write frame: %w", err)
		return c.err
	}
	c.stats.FramesOut.Add(1)
	return nil
}

// Stats returns the client's counters.
func (c *Client) Stats() *Stats { return c.stats }

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
