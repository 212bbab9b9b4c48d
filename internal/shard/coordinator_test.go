package shard

import (
	"errors"
	"reflect"
	"testing"

	"dcstream/internal/center"
	"dcstream/internal/transport"
)

// fakeSender records every message routed to one shard and can refuse sends.
type fakeSender struct {
	sent []transport.Message
	err  error
}

func (f *fakeSender) Send(m transport.Message) error {
	if f.err != nil {
		return f.err
	}
	f.sent = append(f.sent, m)
	return nil
}

func fakeSenders(n int) ([]Sender, []*fakeSender) {
	fs := make([]*fakeSender, n)
	ss := make([]Sender, n)
	for i := range fs {
		fs[i] = &fakeSender{}
		ss[i] = fs[i]
	}
	return ss, fs
}

func mkAligned(epoch, router int) transport.AlignedDigest {
	return transport.AlignedDigest{RouterID: router, Epoch: epoch}
}

func mkReport(t *testing.T, shard int, rep center.WindowReport) transport.Report {
	t.Helper()
	m, err := EncodeReport(Envelope{Shard: shard, Report: rep})
	if err != nil {
		t.Fatalf("encoding report: %v", err)
	}
	return m
}

// TestCoordinatorRouteFansOutBySpan: every digest reaches exactly the shards
// whose spans need it, the pending ledger files the epoch under its owner,
// and refused sends land in the owner's health row — never in the merge.
func TestCoordinatorRouteFansOutBySpan(t *testing.T) {
	part := Partition{Shards: 3, Slide: 2}
	ss, fs := fakeSenders(3)
	co := NewCoordinator(part, ss)

	for e := 1; e <= 6; e++ {
		co.Route(mkAligned(e, 40+e))
	}
	want := make([]int, 3)
	for e := 1; e <= 6; e++ {
		for _, s := range part.ShardsFor(e) {
			want[s]++
		}
	}
	hs := co.Healths()
	for i := range fs {
		if len(fs[i].sent) != want[i] {
			t.Fatalf("shard %d received %d messages, want %d", i, len(fs[i].sent), want[i])
		}
		if hs[i].Routed != int64(want[i]) || hs[i].SendErrors != 0 {
			t.Fatalf("shard %d health = %+v, want Routed %d", i, hs[i], want[i])
		}
		if want[i] > 0 && (!hs[i].HasRouted || hs[i].LastRoutedEpoch < 1) {
			t.Fatalf("shard %d missing last-routed epoch: %+v", i, hs[i])
		}
	}

	// A refusing transport degrades the shard's health row, nothing else.
	fs[1].err = errors.New("refused")
	before := co.Healths()[1].Routed
	for e := 1; e <= 6; e++ {
		co.Route(mkAligned(e, 50+e))
	}
	h1 := co.Healths()[1]
	if h1.SendErrors != h1.Routed-before {
		t.Fatalf("send errors %d, want %d", h1.SendErrors, h1.Routed-before)
	}
	if h1.DegradedCause != "send-errors" {
		t.Fatalf("degraded cause %q, want send-errors", h1.DegradedCause)
	}
	if co.Stats().Synthesized.Load() != 0 {
		t.Fatalf("send errors must not synthesize reports")
	}
}

// TestCoordinatorMergeShardOrderTotal: reports emerge in strictly ascending
// epoch order no matter the gather order, and the merge blocks at the oldest
// epoch whose live owner still owes a report — newer verdicts never overtake.
func TestCoordinatorMergeShardOrderTotal(t *testing.T) {
	part := Partition{Shards: 2}
	ss, _ := fakeSenders(2)
	co := NewCoordinator(part, ss)

	for e := 1; e <= 4; e++ {
		co.Route(mkAligned(e, 9))
	}
	// Gather 2, 4, 1 — hold back 3.
	for _, e := range []int{2, 4, 1} {
		co.Gather(mkReport(t, part.Owner(e), center.WindowReport{Epoch: e, Routers: 1}))
	}
	got := co.TakeMerged()
	if len(got) != 2 || got[0].Report.Epoch != 1 || got[1].Report.Epoch != 2 {
		t.Fatalf("merged %+v, want epochs [1 2] and a block at 3", got)
	}
	for _, m := range got {
		if m.Synthesized {
			t.Fatalf("live merge synthesized %+v", m)
		}
		if m.Shard != part.Owner(m.Report.Epoch) {
			t.Fatalf("epoch %d attributed to shard %d, owner is %d", m.Report.Epoch, m.Shard, part.Owner(m.Report.Epoch))
		}
	}
	if more := co.TakeMerged(); len(more) != 0 {
		t.Fatalf("second drain emitted %+v while 3 still owed", more)
	}
	co.Gather(mkReport(t, part.Owner(3), center.WindowReport{Epoch: 3, Routers: 1}))
	got = co.TakeMerged()
	if len(got) != 2 || got[0].Report.Epoch != 3 || got[1].Report.Epoch != 4 {
		t.Fatalf("after gathering 3, merged %+v, want [3 4]", got)
	}
	if s := co.Stats(); s.Merged.Load() != 4 || s.Synthesized.Load() != 0 {
		t.Fatalf("%d merged, %d synthesized; want 4 merged, 0 synthesized", s.Merged.Load(), s.Synthesized.Load())
	}
}

// TestCoordinatorDeadShardSynthesizesDegraded: killing a shard synthesizes
// Degraded tombstones for exactly its owned epochs — MissingRouters naming
// the routers that fed them — while every surviving shard's report passes
// through verbatim. Degraded, never wrong.
func TestCoordinatorDeadShardSynthesizesDegraded(t *testing.T) {
	part := Partition{Shards: 2}
	ss, _ := fakeSenders(2)
	co := NewCoordinator(part, ss)

	const epochs = 8
	for e := 1; e <= epochs; e++ {
		co.Route(mkAligned(e, 7))
		co.Route(mkAligned(e, 100+e))
	}
	dead := part.Owner(4)
	live := 1 - dead
	for e := 1; e <= epochs; e++ {
		if part.Owner(e) == live {
			co.Gather(mkReport(t, live, center.WindowReport{Epoch: e, Routers: 2}))
		}
	}
	co.MarkDead(dead)

	got := co.TakeMerged()
	if len(got) != epochs {
		t.Fatalf("merged %d reports, want %d", len(got), epochs)
	}
	for i, m := range got {
		if m.Report.Epoch != i+1 {
			t.Fatalf("merged order broken at %d: %+v", i, m)
		}
		if part.Owner(m.Report.Epoch) == dead {
			if !m.Synthesized || !m.Report.Degraded {
				t.Fatalf("dead-owned epoch %d not synthesized degraded: %+v", m.Report.Epoch, m)
			}
			wantMissing := []int{7, 100 + m.Report.Epoch}
			if !reflect.DeepEqual(m.Report.MissingRouters, wantMissing) {
				t.Fatalf("epoch %d missing routers %v, want %v", m.Report.Epoch, m.Report.MissingRouters, wantMissing)
			}
			if m.Report.Aligned != nil || m.Report.Unaligned != nil {
				t.Fatalf("synthesized report carries analysis: %+v", m.Report)
			}
		} else {
			if m.Synthesized || m.Report.Degraded || m.Report.Routers != 2 {
				t.Fatalf("live epoch %d not verbatim: %+v", m.Report.Epoch, m)
			}
		}
	}
	h := co.Healths()[dead]
	if !h.Dead || h.DegradedCause != "dead" {
		t.Fatalf("dead shard health %+v, want Dead with cause dead", h)
	}
}

// TestCoordinatorExpireStaleHorizon: only pending epochs the fleet clock has
// advanced at least horizon past expire; gathered epochs never expire; and
// horizon 0 is the shutdown drain that gives up on everything un-gathered.
func TestCoordinatorExpireStaleHorizon(t *testing.T) {
	part := Partition{Shards: 2}
	ss, _ := fakeSenders(2)
	co := NewCoordinator(part, ss)

	for _, e := range []int{5, 8, 9, 10} {
		co.Route(mkAligned(e, 3))
	}
	co.Gather(mkReport(t, part.Owner(8), center.WindowReport{Epoch: 8}))
	if n := co.ExpireStale(3); n != 1 {
		t.Fatalf("ExpireStale(3) expired %d epochs, want 1 (epoch 5)", n)
	}
	if n := co.ExpireStale(3); n != 0 {
		t.Fatalf("ExpireStale(3) again expired %d, want 0", n)
	}
	got := co.TakeMerged()
	// 5 synthesizes (expired), 8 emits verbatim, 9 blocks the walk.
	if len(got) != 2 || !got[0].Synthesized || got[0].Report.Epoch != 5 ||
		got[1].Synthesized || got[1].Report.Epoch != 8 {
		t.Fatalf("merged %+v, want synthesized 5 then verbatim 8", got)
	}
	if n := co.ExpireStale(0); n != 2 {
		t.Fatalf("shutdown drain expired %d, want 2 (epochs 9, 10)", n)
	}
	got = co.TakeMerged()
	if len(got) != 2 || !got[0].Synthesized || !got[1].Synthesized ||
		got[0].Report.Epoch != 9 || got[1].Report.Epoch != 10 {
		t.Fatalf("after shutdown drain, merged %+v, want synthesized [9 10]", got)
	}
}

// TestCoordinatorDuplicateAndBadReports: undecodable frames and out-of-range
// shard ids count bad; second reports for one epoch resolve by
// center.BetterReport and count duplicate; reports and digests below the
// merge watermark count duplicate and late rather than reopening history.
func TestCoordinatorDuplicateAndBadReports(t *testing.T) {
	part := Partition{Shards: 2}
	ss, _ := fakeSenders(2)
	co := NewCoordinator(part, ss)

	co.Gather(transport.Report{Payload: []byte("not json")})
	co.Gather(mkReport(t, 5, center.WindowReport{Epoch: 1}))
	co.Gather(mkReport(t, -1, center.WindowReport{Epoch: 1}))
	if s := co.Stats(); s.BadReports.Load() != 3 {
		t.Fatalf("bad reports %d, want 3", s.BadReports.Load())
	}

	co.Route(mkAligned(1, 2))
	owner := part.Owner(1)
	// Shed tombstone first, full verdict second: the better report wins.
	co.Gather(mkReport(t, owner, center.WindowReport{Epoch: 1, Shed: true, ShedDigests: 4}))
	co.Gather(mkReport(t, owner, center.WindowReport{Epoch: 1, Routers: 3}))
	// Then a worse one again: the incumbent stands.
	co.Gather(mkReport(t, owner, center.WindowReport{Epoch: 1, Routers: 1, Degraded: true}))
	got := co.TakeMerged()
	if len(got) != 1 || got[0].Report.Shed || got[0].Report.Routers != 3 {
		t.Fatalf("merged %+v, want the full 3-router verdict", got)
	}
	if s := co.Stats(); s.DuplicateReports.Load() != 2 {
		t.Fatalf("duplicate reports %d, want 2", s.DuplicateReports.Load())
	}

	// Epoch 1 is emitted: a replayed report and a straggler digest for it
	// count duplicate and late, and the merge stays drained.
	co.Gather(mkReport(t, owner, center.WindowReport{Epoch: 1, Routers: 9}))
	co.Route(mkAligned(1, 2))
	if s := co.Stats(); s.DuplicateReports.Load() != 3 || s.LateDigests.Load() != 1 {
		t.Fatalf("%d duplicates, %d late digests; want 3 duplicates and 1 late digest", s.DuplicateReports.Load(), s.LateDigests.Load())
	}
	if more := co.TakeMerged(); len(more) != 0 {
		t.Fatalf("watermarked epoch re-emitted: %+v", more)
	}

	// Unknown message kinds are counted, not routed.
	co.Route(nil)
	if s := co.Stats(); s.UnknownMessages.Load() != 1 {
		t.Fatalf("unknown messages %d, want 1", s.UnknownMessages.Load())
	}
}

// TestCoordinatorGatherPokes: a filed report pokes Gathered, so whoever owns
// the merge's clock can drain it without waiting for a tick; a report that
// files nothing (bad, or worse than the incumbent) does not.
func TestCoordinatorGatherPokes(t *testing.T) {
	ss, _ := fakeSenders(2)
	co := NewCoordinator(Partition{Shards: 2}, ss)
	poked := func() bool {
		select {
		case <-co.Gathered():
			return true
		default:
			return false
		}
	}
	co.Gather(transport.Report{Payload: []byte("not json")})
	if poked() {
		t.Fatal("a bad report poked the merge")
	}
	co.Route(mkAligned(1, 2))
	owner := co.Partition().Owner(1)
	co.Gather(mkReport(t, owner, center.WindowReport{Epoch: 1, Routers: 3}))
	co.Gather(mkReport(t, owner, center.WindowReport{Epoch: 1, Routers: 3}))
	if !poked() || poked() {
		t.Fatal("want exactly one pending poke for any number of filed reports")
	}
	co.Gather(mkReport(t, owner, center.WindowReport{Epoch: 1, Routers: 1, Degraded: true}))
	if poked() {
		t.Fatal("a report worse than the incumbent filed nothing and still poked")
	}
	if got := co.TakeMerged(); len(got) != 1 || got[0].Report.Routers != 3 {
		t.Fatalf("merged %+v, want the 3-router verdict", got)
	}
}
