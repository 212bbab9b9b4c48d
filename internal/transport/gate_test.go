package transport

import (
	"net"
	"testing"
	"time"
)

// testGate builds a gate on a scripted clock the test advances by hand, so
// cool-downs and token refills run in zero wall time.
func testGate(t *testing.T, cfg GateConfig) (*senderGate, *time.Time) {
	t.Helper()
	g := newSenderGate(cfg, new(Stats))
	if g == nil {
		t.Fatalf("gate with config %+v unexpectedly disabled", cfg)
	}
	clock := time.Unix(1000, 0)
	g.now = func() time.Time { return clock }
	return g, &clock
}

func TestGateDisabledIsNil(t *testing.T) {
	if g := newSenderGate(GateConfig{}, new(Stats)); g != nil {
		t.Fatalf("zero GateConfig built a live gate: %+v", g.cfg)
	}
	// And the nil gate admits everything without panicking.
	var g *senderGate
	if !g.admit("a") || g.blocked("a") || g.strike("a") || g.Quarantined() != nil {
		t.Fatal("nil gate is not a transparent pass-through")
	}
}

// TestGateRateLimitQuarantines: a sender that burns its burst and keeps
// sending is quarantined; a paced sender never is.
func TestGateRateLimitQuarantines(t *testing.T) {
	g, clock := testGate(t, GateConfig{Rate: 10, Burst: 5, Cooldown: time.Minute})
	for i := 0; i < 5; i++ {
		if !g.admit("flood") {
			t.Fatalf("admit %d refused inside the burst", i)
		}
	}
	if g.admit("flood") {
		t.Fatal("6th instantaneous admit allowed past a burst of 5")
	}
	if got := g.stats.SendersQuarantined.Load(); got != 1 {
		t.Fatalf("SendersQuarantined=%d, want 1", got)
	}
	if !g.blocked("flood") || g.admit("flood") {
		t.Fatal("flooding sender not quarantined")
	}
	// Three refusals so far: the over-burst admit, blocked, and the retry.
	if got := g.stats.QuarantineDrops.Load(); got != 3 {
		t.Fatalf("QuarantineDrops=%d, want 3", got)
	}

	// A paced sender (one unit per 100ms at Rate 10) sails through.
	for i := 0; i < 50; i++ {
		*clock = clock.Add(100 * time.Millisecond)
		if !g.admit("paced") {
			t.Fatalf("paced sender refused at admit %d", i)
		}
	}
	if got := g.stats.SendersQuarantined.Load(); got != 1 {
		t.Fatalf("paced sender quarantined: SendersQuarantined=%d", got)
	}
}

// TestGateStrikesQuarantine: MaxStrikes malformed units put the sender in
// quarantine even with rate limiting off.
func TestGateStrikesQuarantine(t *testing.T) {
	g, _ := testGate(t, GateConfig{MaxStrikes: 3, Cooldown: time.Minute})
	if g.strike("bad") || g.strike("bad") {
		t.Fatal("quarantined before MaxStrikes")
	}
	if !g.strike("bad") {
		t.Fatal("MaxStrikes-th strike did not quarantine")
	}
	if !g.blocked("bad") {
		t.Fatal("struck-out sender not blocked")
	}
	// With no Rate configured, a sender in good standing is never refused.
	if !g.admit("good") || g.blocked("good") {
		t.Fatal("clean sender refused by a strikes-only gate")
	}
	if got := g.stats.Strikes.Load(); got != 3 {
		t.Fatalf("Strikes=%d, want 3", got)
	}
}

// TestGateParole: after the cool-down the sender is released with strikes
// forgiven and bucket refilled — and can earn a fresh sentence.
func TestGateParole(t *testing.T) {
	g, clock := testGate(t, GateConfig{Rate: 10, Burst: 2, MaxStrikes: 2, Cooldown: time.Minute})
	g.strike("r1")
	g.strike("r1")
	if !g.blocked("r1") {
		t.Fatal("not quarantined after MaxStrikes")
	}
	*clock = clock.Add(59 * time.Second)
	if !g.blocked("r1") {
		t.Fatal("paroled before the cool-down elapsed")
	}
	*clock = clock.Add(2 * time.Second)
	if g.blocked("r1") || !g.admit("r1") {
		t.Fatal("not paroled after the cool-down")
	}
	if got := g.stats.Paroles.Load(); got != 1 {
		t.Fatalf("Paroles=%d, want 1", got)
	}
	if got := g.stats.QuarantinedSenders.Load(); got != 0 {
		t.Fatalf("QuarantinedSenders gauge=%d after parole, want 0", got)
	}
	// Strikes were forgiven: one new strike does not re-quarantine...
	if g.strike("r1") {
		t.Fatal("single post-parole strike re-quarantined (strikes not reset)")
	}
	// ...but a full set does, counting a second sentence.
	if !g.strike("r1") {
		t.Fatal("repeat offender not re-quarantined")
	}
	if got := g.stats.SendersQuarantined.Load(); got != 2 {
		t.Fatalf("SendersQuarantined=%d, want 2 sentences", got)
	}
}

// TestGateSendersIndependent: one sender's quarantine never affects another.
func TestGateSendersIndependent(t *testing.T) {
	g, _ := testGate(t, GateConfig{Rate: 1, Burst: 1, MaxStrikes: 1, Cooldown: time.Minute})
	g.strike("evil")
	if !g.blocked("evil") {
		t.Fatal("striker not quarantined at MaxStrikes=1")
	}
	if !g.admit("innocent") {
		t.Fatal("bystander refused")
	}
	q := g.Quarantined()
	if len(q) != 1 || q[0] != "evil" {
		t.Fatalf("Quarantined()=%v, want [evil]", q)
	}
}

func TestSenderKey(t *testing.T) {
	tcp := &net.TCPAddr{IP: net.ParseIP("10.1.2.3"), Port: 4444}
	udp := &net.UDPAddr{IP: net.ParseIP("10.1.2.3"), Port: 5555}
	if k1, k2 := senderKey(tcp), senderKey(udp); k1 != "10.1.2.3" || k1 != k2 {
		t.Fatalf("senderKey: tcp=%q udp=%q, want both 10.1.2.3 (port-independent)", k1, k2)
	}
	if k := senderKey(nil); k != "" {
		t.Fatalf("senderKey(nil)=%q", k)
	}
}

// TestServerGateQuarantinesGarbageSender drives the wired-up TCP path: a
// sender spraying malformed frames is quarantined after MaxStrikes and its
// reconnects are refused, while a clean collector keeps delivering.
func TestServerGateQuarantinesGarbageSender(t *testing.T) {
	var got int
	srv, err := ServeConfig("127.0.0.1:0", func(m Message, from net.Addr) { got++ },
		ServerConfig{Gate: GateConfig{MaxStrikes: 2, Cooldown: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	spray := func() {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("DCS1garbagegarbagegarbage")); err != nil {
			return // already refused — fine
		}
		// Wait for the server to kill the connection (bad frame).
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		conn.Read(buf)
	}
	spray()
	spray() // second strike: quarantined

	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Stats().SendersQuarantined.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sender never quarantined; %d strikes, %d drops", srv.Stats().Strikes.Load(), srv.Stats().QuarantineDrops.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	q := srv.QuarantinedSenders()
	if len(q) != 1 || q[0] != "127.0.0.1" {
		t.Fatalf("QuarantinedSenders()=%v", q)
	}
	// 127.0.0.1 is quarantined, and on loopback that is also our clean
	// client — its frames must now be refused, proving the accept/admit
	// checks actually fire. (Per-host keying is the point: distinct hosts
	// stay unaffected, per TestGateSendersIndependent.)
	c, err := Dial(srv.Addr(), time.Second)
	if err == nil {
		defer c.Close()
		c.Send(AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: randomVector(1, 256)})
		time.Sleep(50 * time.Millisecond)
	}
	if got != 0 {
		t.Fatalf("quarantined host delivered %d frames", got)
	}
	if srv.Stats().QuarantineDrops.Load() == 0 {
		t.Fatal("no quarantine drops counted for the refused connection")
	}
}

// TestUDPServerGateRateLimit drives the wired-up UDP path: a flooding sender
// is quarantined mid-burst and its later datagrams dropped, all visible in
// the stats.
func TestUDPServerGateRateLimit(t *testing.T) {
	var got int
	srv, err := ServeUDPConfig("127.0.0.1:0", func(m Message, from net.Addr) { got++ },
		UDPServerConfig{Gate: GateConfig{Rate: 1, Burst: 3, Cooldown: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialUDP(srv.Addr(), UDPClientConfig{SenderID: 1, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Send(AlignedDigest{RouterID: 1, Epoch: i + 1, Bitmap: randomVector(uint64(i+1), 256)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil { // one datagram per digest
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := srv.Stats()
		// Burst of 3 admitted, the rest refused (UDP is lossy, so only the
		// quarantine sentence itself is a hard expectation).
		if s.SendersQuarantined.Load() == 1 && s.DatagramsIn.Load() <= 3 && s.QuarantineDrops.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flooder never quarantined; %d sentences, %d datagrams in, %d drops", s.SendersQuarantined.Load(), s.DatagramsIn.Load(), s.QuarantineDrops.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got > 3 {
		t.Fatalf("%d frames delivered past a burst of 3", got)
	}
}
