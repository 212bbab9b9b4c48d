package shard_test

import (
	"reflect"
	"testing"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/daemon"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

// TestShardJournalReplayMidSpanCrash: a shard cluster in sliding mode crashes
// mid-span — every shard killed with its journal left exactly as the crash
// left it — then a new cluster reopens the same per-shard journal
// directories, replays before serving, and finishes the stream. The merged
// span reports must come out bit-identical to an uninterrupted run, including
// the spans that straddle the crash point.
func TestShardJournalReplayMidSpanCrash(t *testing.T) {
	const routers, epochs, shards = 5, 10, 2
	const crashAfter = 7 // epochs 1..7 land before the crash; spans 8..10 straddle it
	msgs := buildShardWorkload(53, routers, epochs)
	splitAt := 0
	for i, m := range msgs {
		if d, ok := m.(transport.AlignedDigest); ok && d.Epoch == crashAfter+1 {
			splitAt = i
			break
		}
	}
	if splitAt == 0 {
		t.Fatal("workload never reached the crash epoch")
	}
	cfg := center.Config{SubsetSize: 64, MaxEpochs: 16, Parallelism: 2, WindowSlide: 3}
	part := shard.Partition{Shards: shards, Slide: 3}

	// Uninterrupted run: one cluster, journal on (same config as the crash
	// run, so the only variable is the crash), whole stream, one drain.
	control := runCluster(t, daemon.ClusterConfig{
		Shards: shards, Center: cfg, JournalDir: t.TempDir(),
	}, msgs)
	want := mergedToReports(t, control, part)

	// Crash run, life one: ingest the prefix, then kill every shard with no
	// drain — reports unpushed, spans open, journals un-closed mid-span.
	dir := t.TempDir()
	cl, err := daemon.NewCluster(daemon.ClusterConfig{Shards: shards, Center: cfg, JournalDir: dir})
	if err != nil {
		t.Fatalf("starting first life: %v", err)
	}
	for _, m := range msgs[:splitAt] {
		cl.Route(m)
	}
	if err := cl.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("quiesce before crash: %v", err)
	}
	for i := 0; i < shards; i++ {
		cl.KillShard(i)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("closing crashed cluster: %v", err)
	}

	// Life two: same journal directories. Replay runs before the servers
	// accept a byte — the same replay-before-listen rule dcsd follows — then
	// the rest of the stream arrives over the wire.
	cl2, err := daemon.NewCluster(daemon.ClusterConfig{Shards: shards, Center: cfg, JournalDir: dir})
	if err != nil {
		t.Fatalf("starting second life: %v", err)
	}
	defer func() {
		if err := cl2.Close(); err != nil {
			t.Errorf("closing second life: %v", err)
		}
	}()
	for _, m := range msgs[splitAt:] {
		cl2.Route(m)
	}
	if err := cl2.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("quiesce after replay: %v", err)
	}
	merged, err := cl2.AnalyzeAll(10 * time.Second)
	if err != nil {
		t.Fatalf("analyze after replay: %v", err)
	}
	got := make([]center.WindowReport, 0, len(merged))
	for i, m := range merged {
		if m.Synthesized {
			t.Fatalf("replayed cluster synthesized a report: %+v", m)
		}
		if i > 0 && merged[i-1].Report.Epoch >= m.Report.Epoch {
			t.Fatalf("merge order broken after replay: %+v", merged)
		}
		got = append(got, m.Report)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed run diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
}
