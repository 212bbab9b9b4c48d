package transport

import "dcstream/internal/metrics"

// Stats counts transport-level events with atomic counters so the server's
// per-connection goroutines and a ReconnectingClient's sender can bump them
// without locks, and internal/daemon can read them while traffic flows. The
// fields are registry-grade metrics (their Add/Load API matches
// sync/atomic's), so Register can expose the same values on /metrics without
// a second set of books.
//
// A Stats value must not be copied after first use. The zero value is ready.
type Stats struct {
	// FramesIn counts frames decoded successfully (server side).
	FramesIn metrics.Counter
	// FramesOut counts frames written successfully (client side).
	FramesOut metrics.Counter
	// BadFrames counts frames rejected as malformed or checksum-failed
	// (ErrBadFrame); each one costs the offending connection its life but
	// leaves every other collector connected.
	BadFrames metrics.Counter
	// ConnsAccepted counts collector connections accepted.
	ConnsAccepted metrics.Counter
	// ConnsReaped counts connections closed by the server's read deadline
	// (dead or stalled collectors).
	ConnsReaped metrics.Counter
	// Reconnects counts successful re-dials by ReconnectingClient after the
	// initial connection (0 while the first dial is still pending).
	Reconnects metrics.Counter
	// Resends counts frames that had to be written again on a fresh
	// connection after a mid-write failure.
	Resends metrics.Counter
	// DroppedSends counts messages refused by a full ReconnectingClient
	// buffer — digests lost on the collector side, never sent.
	DroppedSends metrics.Counter
	// AbandonedOnClose counts messages still undelivered when Close ran —
	// the caller chose to stop before Flush emptied the buffer.
	AbandonedOnClose metrics.Counter
	// DialAttempts counts ReconnectingClient connection attempts, failed or
	// not. Against a healthy center this tracks Reconnects+1; a rate far
	// above the configured backoff ceiling is the signature of something
	// defeating the backoff.
	DialAttempts metrics.Counter
	// ConnLifetimeSeconds observes how long each server-side collector
	// connection lived, accept to close. Short lifetimes under load are the
	// signature of a flapping collector or an over-aggressive ReadTimeout.
	ConnLifetimeSeconds metrics.Histogram

	// DatagramsOut counts datagrams a BatchingUDPClient handed to the
	// kernel; each carries one or more digest frames (see FramesOut).
	DatagramsOut metrics.Counter
	// DatagramsIn counts datagrams a UDPServer accepted past the prefilter
	// and header decode.
	DatagramsIn metrics.Counter
	// DatagramsRejected counts datagrams the cheap magic+length prefilter
	// (or header decode) refused before any allocation — port scans, stray
	// traffic, truncated garbage.
	DatagramsRejected metrics.Counter
	// DatagramsLost counts sequence-number gaps observed per sender: each
	// missing seq is one datagram (and all its frames) presumed dropped in
	// flight. A datagram that later arrives out of order is counted in
	// DatagramsLate but not subtracted here — the counter is a loss
	// estimate for monitoring, not a ledger.
	DatagramsLost metrics.Counter
	// DatagramsLate counts datagrams arriving with a sequence number at or
	// below the sender's highest seen — reordered or duplicated in flight.
	// Their frames are still delivered; the center's duplicate accounting
	// resolves them.
	DatagramsLate metrics.Counter
	// FramesPerDatagram observes how many digest frames each accepted
	// datagram carried — the batching efficacy of the UDP path.
	FramesPerDatagram metrics.Histogram
	// PeerEvictions counts per-sender sequence-accounting entries dropped
	// to keep the peers map within its MaxPeers bound — idle entries expired
	// past the quarantine cooldown, or the least-recently-seen entry when
	// nothing is idle.
	PeerEvictions metrics.Counter
	// SenderRestarts counts sequence marks reset after a detected collector
	// restart (seq renumbered from 1 after a quiet gap). Without the reset,
	// the whole post-restart stream would count as late.
	SenderRestarts metrics.Counter

	// SendersQuarantined counts quarantine sentences handed out by the
	// admission gate (a repeat offender counts once per sentence);
	// QuarantinedSenders is the number currently serving one.
	SendersQuarantined metrics.Counter
	QuarantinedSenders metrics.Gauge
	// QuarantineDrops counts frames, datagrams, and connection attempts
	// refused because their sender was quarantined (including the unit that
	// earned the sentence).
	QuarantineDrops metrics.Counter
	// Strikes counts malformed units the gate charged against tracked
	// senders — each one also appears in BadFrames or DatagramsRejected,
	// which keep counting whether or not a gate is running.
	Strikes metrics.Counter
	// Paroles counts quarantined senders released after their cool-down.
	Paroles metrics.Counter
}

// Register exposes every counter (and the connection-lifetime histogram) on
// r, each name prefixed with ns (empty means "dcs_transport"). The fields
// stay the single source of truth: registration attaches them, it does not
// copy them. Pass distinct namespaces to register several Stats — say a
// server's and a client's — on one registry.
func (s *Stats) Register(r *metrics.Registry, ns string) {
	if ns == "" {
		ns = "dcs_transport"
	}
	r.RegisterCounter(ns+"_frames_in_total",
		"frames decoded successfully (server side)", &s.FramesIn)
	r.RegisterCounter(ns+"_frames_out_total",
		"frames written successfully (client side)", &s.FramesOut)
	r.RegisterCounter(ns+"_frames_bad_total",
		"frames rejected as malformed or checksum-failed", &s.BadFrames)
	r.RegisterCounter(ns+"_conns_accepted_total",
		"collector connections accepted", &s.ConnsAccepted)
	r.RegisterCounter(ns+"_conns_reaped_total",
		"connections closed by the server's read deadline", &s.ConnsReaped)
	r.RegisterCounter(ns+"_reconnects_total",
		"successful re-dials after the initial connection", &s.Reconnects)
	r.RegisterCounter(ns+"_resends_total",
		"frames rewritten on a fresh connection after a mid-write failure", &s.Resends)
	r.RegisterCounter(ns+"_sends_dropped_total",
		"messages refused by a full reconnect buffer", &s.DroppedSends)
	r.RegisterCounter(ns+"_abandoned_on_close_total",
		"messages still undelivered when Close ran", &s.AbandonedOnClose)
	r.RegisterCounter(ns+"_dial_attempts_total",
		"reconnecting-client connection attempts, failed or not", &s.DialAttempts)
	r.RegisterHistogram(ns+"_conn_lifetime_seconds",
		"server-side collector connection lifetimes, accept to close", &s.ConnLifetimeSeconds)
	r.RegisterCounter(ns+"_datagrams_out_total",
		"datagrams handed to the kernel by the batching UDP client", &s.DatagramsOut)
	r.RegisterCounter(ns+"_datagrams_in_total",
		"datagrams accepted past the UDP prefilter and header decode", &s.DatagramsIn)
	r.RegisterCounter(ns+"_datagrams_rejected_total",
		"datagrams refused by the magic+length prefilter before allocation", &s.DatagramsRejected)
	r.RegisterCounter(ns+"_datagrams_lost_total",
		"datagrams presumed dropped in flight (per-sender sequence gaps)", &s.DatagramsLost)
	r.RegisterCounter(ns+"_datagrams_late_total",
		"datagrams arriving reordered or duplicated (seq at or below highest seen)", &s.DatagramsLate)
	r.RegisterHistogram(ns+"_frames_per_datagram",
		"digest frames carried per accepted datagram", &s.FramesPerDatagram)
	r.RegisterCounter(ns+"_peer_evictions_total",
		"per-sender sequence entries evicted to bound the peers map", &s.PeerEvictions)
	r.RegisterCounter(ns+"_sender_restarts_total",
		"sequence marks reset after a detected collector restart", &s.SenderRestarts)
	r.RegisterCounter(ns+"_quarantined_senders_total",
		"quarantine sentences handed out by the admission gate", &s.SendersQuarantined)
	r.RegisterGauge(ns+"_quarantined_senders",
		"senders currently serving a quarantine sentence", &s.QuarantinedSenders)
	r.RegisterCounter(ns+"_quarantined_drops_total",
		"frames, datagrams, and connections refused from quarantined senders", &s.QuarantineDrops)
	r.RegisterCounter(ns+"_quarantine_strikes_total",
		"malformed units charged against tracked senders by the gate", &s.Strikes)
	r.RegisterCounter(ns+"_quarantine_paroles_total",
		"quarantined senders released after their cool-down", &s.Paroles)
}
