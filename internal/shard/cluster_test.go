package shard_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/daemon"
	"dcstream/internal/shard"
	"dcstream/internal/stats"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// buildShardWorkload draws a deterministic digest stream carrying both digest
// kinds for every router in every epoch, with a shared content vector planted
// in some routers' unaligned digests so the analysis has real evidence to
// agree on. Modeled on the streaming experiment's workload builder, sized for
// tests.
func buildShardWorkload(seed uint64, routers, epochs int) []transport.Message {
	const bits = 1 << 10
	const arrayBits = 512
	const groups, arrays = 2, 3
	rng := stats.NewRand(seed)
	fill := func(v *bitvec.Vector, n, space int) {
		for i := 0; i < n; i++ {
			v.Set(rng.Intn(space))
		}
	}
	shared := bitvec.New(arrayBits)
	fill(shared, arrayBits/3, arrayBits)

	var msgs []transport.Message
	for e := 1; e <= epochs; e++ {
		for r := 0; r < routers; r++ {
			bm := bitvec.New(bits)
			fill(bm, bits/4, bits)
			msgs = append(msgs, transport.AlignedDigest{RouterID: r, Epoch: e, Bitmap: bm})
			d := &unaligned.Digest{RouterID: r, Rows: make([][]*bitvec.Vector, groups)}
			for g := range d.Rows {
				d.Rows[g] = make([]*bitvec.Vector, arrays)
				for a := range d.Rows[g] {
					v := bitvec.New(arrayBits)
					fill(v, arrayBits/8, arrayBits)
					if g == 0 && r%3 == 0 {
						v.Or(v, shared)
					}
					d.Rows[g][a] = v
				}
			}
			msgs = append(msgs, transport.UnalignedDigest{Epoch: e, Digest: d})
		}
	}
	return msgs
}

// referenceReports runs the plain, un-sharded center over the same message
// stream with the same drain procedure and returns its reports sorted by
// epoch — the ground truth every cluster configuration must reproduce.
func referenceReports(t *testing.T, cfg center.Config, msgs []transport.Message) []center.WindowReport {
	t.Helper()
	n := daemon.NewNode(cfg, nil)
	for _, m := range msgs {
		n.Center.Ingest(m)
	}
	reps, err := n.Drain()
	if err != nil {
		t.Fatalf("reference drain: %v", err)
	}
	sortReports(reps)
	return reps
}

func sortReports(reps []center.WindowReport) {
	sort.Slice(reps, func(i, j int) bool { return reps[i].Epoch < reps[j].Epoch })
}

// runCluster routes the stream through a fresh cluster and returns the merged
// verdict stream.
func runCluster(t *testing.T, cfg daemon.ClusterConfig, msgs []transport.Message) []shard.MergedReport {
	t.Helper()
	cl, err := daemon.NewCluster(cfg)
	if err != nil {
		t.Fatalf("starting cluster: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("closing cluster: %v", err)
		}
	}()
	for _, m := range msgs {
		cl.Route(m)
	}
	if err := cl.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	merged, err := cl.AnalyzeAll(10 * time.Second)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return merged
}

// mergedToReports strips the merge metadata, asserting along the way that the
// stream is strictly epoch-ascending and nothing was synthesized.
func mergedToReports(t *testing.T, merged []shard.MergedReport, part shard.Partition) []center.WindowReport {
	t.Helper()
	reps := make([]center.WindowReport, 0, len(merged))
	for i, m := range merged {
		if m.Synthesized {
			t.Fatalf("healthy cluster synthesized a report: %+v", m)
		}
		if i > 0 && merged[i-1].Report.Epoch >= m.Report.Epoch {
			t.Fatalf("merge order broken: epoch %d after %d", m.Report.Epoch, merged[i-1].Report.Epoch)
		}
		if want := part.Owner(m.Report.Epoch); m.Shard != want {
			t.Fatalf("epoch %d reported by shard %d, owner is %d", m.Report.Epoch, m.Shard, want)
		}
		reps = append(reps, m.Report)
	}
	return reps
}

// TestShardClusterOneShardBitIdentical is the equivalence contract: a 1-shard
// cluster — real TCP scatter, real JSON report gather — produces WindowReports
// bit-identical to a single un-sharded center over the same seeded stream, in
// classic and sliding modes, at several analysis worker counts.
func TestShardClusterOneShardBitIdentical(t *testing.T) {
	msgs := buildShardWorkload(41, 6, 10)
	for _, slide := range []int{0, 3} {
		for _, workers := range []int{-1, 2, 4} {
			t.Run(fmt.Sprintf("slide%d_workers%d", slide, workers), func(t *testing.T) {
				cfg := center.Config{SubsetSize: 64, MaxEpochs: 16, Parallelism: workers, WindowSlide: slide}
				want := referenceReports(t, cfg, msgs)
				merged := runCluster(t, daemon.ClusterConfig{Shards: 1, Center: cfg}, msgs)
				got := mergedToReports(t, merged, shard.Partition{Shards: 1, Slide: slide})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("1-shard cluster diverged from single center:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestShardClusterScatterGatherBitIdentical: because the partition unit is the
// whole span, scattering across 2 and 4 shards changes which process computes
// each verdict but not the verdict itself — the merged stream matches the
// single-center reference on every verdict field. The one field normalized
// out is RetiredEpochs: it logs which buffered epochs the reporting center
// freed when the span closed, and a shard that owns only every Nth span
// batches its retirement differently than a center closing all of them —
// local buffer housekeeping, not analysis output (the 1-shard test above
// compares it verbatim).
func TestShardClusterScatterGatherBitIdentical(t *testing.T) {
	msgs := buildShardWorkload(43, 6, 10)
	clearRetired := func(reps []center.WindowReport) []center.WindowReport {
		out := append([]center.WindowReport(nil), reps...)
		for i := range out {
			out[i].RetiredEpochs = nil
		}
		return out
	}
	for _, slide := range []int{0, 3} {
		cfg := center.Config{SubsetSize: 64, MaxEpochs: 16, Parallelism: 2, WindowSlide: slide}
		want := clearRetired(referenceReports(t, cfg, msgs))
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("slide%d_shards%d", slide, shards), func(t *testing.T) {
				merged := runCluster(t, daemon.ClusterConfig{Shards: shards, Center: cfg}, msgs)
				got := clearRetired(mergedToReports(t, merged, shard.Partition{Shards: shards, Slide: slide}))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d-shard cluster diverged from single center:\n got %+v\nwant %+v", shards, got, want)
				}
			})
		}
	}
}

// TestShardClusterKillOneShardChaos: a shard killed mid-stream degrades the
// merged verdict but never falsifies it. Its owned epochs come back as
// synthesized Degraded tombstones naming every router that fed them missing,
// every surviving shard's report passes through bit-identical to the
// reference, order stays total, and the health ledger pins the corpse.
func TestShardClusterKillOneShardChaos(t *testing.T) {
	const routers, epochs, shards = 6, 12, 3
	const killAfter = 8
	msgs := buildShardWorkload(47, routers, epochs)
	cfg := center.Config{SubsetSize: 64, MaxEpochs: 16, Parallelism: 2}
	ref := referenceReports(t, cfg, msgs)
	byEpoch := make(map[int]center.WindowReport, len(ref))
	for _, r := range ref {
		byEpoch[r.Epoch] = r
	}

	cl, err := daemon.NewCluster(daemon.ClusterConfig{Shards: shards, Center: cfg})
	if err != nil {
		t.Fatalf("starting cluster: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("closing cluster: %v", err)
		}
	}()
	part := cl.Coordinator().Partition()
	const dead = 1

	for _, m := range msgs {
		var epoch int
		switch d := m.(type) {
		case transport.AlignedDigest:
			epoch = d.Epoch
		case transport.UnalignedDigest:
			epoch = d.Epoch
		}
		if epoch == killAfter+1 {
			// Everything through killAfter has been routed; let the doomed
			// shard absorb it, then crash it mid-stream.
			if err := cl.Quiesce(10 * time.Second); err != nil {
				t.Fatalf("quiesce before kill: %v", err)
			}
			cl.KillShard(dead)
		}
		cl.Route(m)
	}
	if err := cl.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	merged, err := cl.AnalyzeAll(10 * time.Second)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}

	if len(merged) != epochs {
		t.Fatalf("merged %d reports, want %d — a dead shard must degrade epochs, not drop them", len(merged), epochs)
	}
	allRouters := make([]int, routers)
	for r := range allRouters {
		allRouters[r] = r
	}
	synth := 0
	for i, m := range merged {
		if m.Report.Epoch != i+1 {
			t.Fatalf("merge order broken at %d: %+v", i, m)
		}
		if part.Owner(m.Report.Epoch) == dead {
			synth++
			if !m.Synthesized || !m.Report.Degraded {
				t.Fatalf("dead-owned epoch %d not synthesized degraded: %+v", m.Report.Epoch, m)
			}
			if !reflect.DeepEqual(m.Report.MissingRouters, allRouters) {
				t.Fatalf("epoch %d missing routers %v, want %v", m.Report.Epoch, m.Report.MissingRouters, allRouters)
			}
			if m.Report.Aligned != nil || m.Report.Unaligned != nil {
				t.Fatalf("synthesized report fabricated analysis: %+v", m.Report)
			}
		} else {
			if m.Synthesized {
				t.Fatalf("live-owned epoch %d synthesized: %+v", m.Report.Epoch, m)
			}
			if !reflect.DeepEqual(m.Report, byEpoch[m.Report.Epoch]) {
				t.Fatalf("surviving shard's epoch %d diverged from reference:\n got %+v\nwant %+v",
					m.Report.Epoch, m.Report, byEpoch[m.Report.Epoch])
			}
		}
	}
	if synth == 0 {
		t.Fatalf("dead shard owned no epochs in 1..%d; workload too small for the partition", epochs)
	}
	h := cl.Coordinator().Healths()[dead]
	if !h.Dead || h.DegradedCause != "dead" {
		t.Fatalf("dead shard health %+v, want Dead with cause %q", h, "dead")
	}
	if s := cl.Coordinator().Stats(); s.Synthesized != int64(synth) {
		t.Fatalf("stats count %d synthesized, merge emitted %d", s.Synthesized, synth)
	}
}
