//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/graph"
	"dcstream/internal/hashing"
	"dcstream/internal/journal"
	"dcstream/internal/shard"
	"dcstream/internal/stats"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// Direct calls into single layers, timed in the benchmark's own process on
// the workload's digests. They put a number on layers the daemon run cannot
// separate (the accumulator from the tracker inside Center.Ingest) and on
// layers no daemon workload reaches (the shard tier, journal replay).

// span is the epochs one analysis covers: the workload's span width, ending
// at an epoch that carries the planted content.
func layerSpan(w workload) []int {
	last := 2 * poolVariants
	var es []int
	for e := last - w.spanWidth() + 1; e <= last; e++ {
		es = append(es, e)
	}
	return es
}

// sink receives results nothing else reads, so the calls that produce them
// are not optimised away.
var sink uint64

// measureCommon times the layers every workload exercises.
func measureCommon(d time.Duration, out map[string]float64) {
	a, b := bitvec.New(1<<16), bitvec.New(1<<16)
	rng := stats.NewRand(1)
	a.FillRandomHalf(rng.Uint64)
	b.FillRandomHalf(rng.Uint64)
	out["bitvec.and_popcount_ns_per_kbit"] = perCall(d, 64, func() { sink += uint64(bitvec.AndCount(a, b)) })

	payload := make([]byte, segment)
	rng.Read(payload)
	h := hashing.New(7)
	out["hashing.sum_ns_per_payload"] = perCall(d, 1, func() { sink += h.Sum(payload) })
}

// measureCollectors times each collector alone over a small epoch of
// full-size traffic, and reads the aligned fill it leaves.
func measureCollectors(seed uint64, d time.Duration, out map[string]float64) error {
	h, err := buildRouterHalf(seed, 20000)
	if err != nil {
		return err
	}
	out["aligned.collector_update_ns_per_packet"] = perCall(d, len(h.pkts), func() {
		for _, p := range h.pkts {
			h.ac.Update(p)
		}
	})
	out["unaligned.collector_update_ns_per_packet"] = perCall(d, len(h.pkts), func() {
		for _, p := range h.pkts {
			h.uc.Update(p)
		}
	})
	out["aligned.digest_fill_ratio"] = h.ac.FillRatio()
	return nil
}

// nopSender stands in for a shard connection.
type nopSender struct{}

func (nopSender) Send(transport.Message) error { return nil }

// measureLayers times the center-side layers on the workload's own digests.
func measureLayers(w workload, p *pools, root string, d time.Duration, out map[string]float64) error {
	span := layerSpan(w)
	var msgs []transport.Message
	for _, e := range span {
		msgs = p.epochMessages(msgs, e)
	}
	var alignedMsgs []transport.AlignedDigest
	var unalignedMsgs []transport.UnalignedDigest
	for _, m := range msgs {
		switch dg := m.(type) {
		case transport.AlignedDigest:
			alignedMsgs = append(alignedMsgs, dg)
		case transport.UnalignedDigest:
			unalignedMsgs = append(unalignedMsgs, dg)
		}
	}

	// Aligned: one accumulator per epoch, as the center keeps them, then the
	// span matrix stitched from them and the detector's level scan.
	var accs []*aligned.Accumulator
	fill := func() {
		accs = accs[:0]
		byEpoch := map[int]*aligned.Accumulator{}
		for _, m := range alignedMsgs {
			acc := byEpoch[m.Epoch]
			if acc == nil {
				acc = aligned.NewAccumulator()
				byEpoch[m.Epoch] = acc
				accs = append(accs, acc)
			}
			acc.Add(m.RouterID, m.Bitmap)
		}
	}
	out["aligned.accumulator_add_us_per_digest"] = perCall(d, len(alignedMsgs), fill) / 1e3
	rows := 0
	for _, acc := range accs {
		rows += acc.Rows()
	}
	subset := w.subset
	if subset == 0 {
		subset = 512
	}
	if subset > w.alignedBits {
		subset = w.alignedBits
	}
	var detErr error
	out["aligned.detect_ms_per_span"] = perCall(d, 1, func() {
		var m *aligned.Matrix
		var weights []int
		if len(accs) == 1 {
			// A single-epoch span runs on the accumulator's own storage.
			m, weights = accs[0].Matrix()
		} else {
			cols := bitvec.NewArena(w.alignedBits, rows)
			weights = make([]int, w.alignedBits)
			at := 0
			for _, acc := range accs {
				acc.BlitInto(cols, at)
				acc.AddWeightsInto(weights)
				at += acc.Rows()
			}
			m = aligned.ColumnMatrix(rows, cols)
		}
		if _, err := aligned.DetectWithWeights(m, weights, aligned.RefinedConfig(subset)); err != nil {
			detErr = err
		}
	}) / 1e6
	if detErr != nil {
		return fmt.Errorf("aligned detector: %w", detErr)
	}

	// Unaligned: the tracker's per-digest correlation, then the finalize
	// steps the center runs on its evidence.
	if len(unalignedMsgs) > 0 {
		// One tracker for the whole measurement, as the center keeps one for
		// its whole life: its pruning tables are built once. Each round adds
		// the span and, outside the timing, drops it again.
		tr := unaligned.NewTracker(unaligned.TrackerConfig{Reach: w.spanWidth()})
		addSpan := func() {
			for _, m := range unalignedMsgs {
				tr.Add(m.Epoch, m.Digest)
			}
		}
		addSpan()
		var adding time.Duration
		rounds := 0
		for begin := time.Now(); rounds == 0 || time.Since(begin) < d; rounds++ {
			for _, e := range span {
				tr.DropEpoch(e)
			}
			t0 := time.Now()
			addSpan()
			adding += time.Since(t0)
		}
		out["unaligned.tracker_add_us_per_digest"] = float64(adding.Microseconds()) / float64(rounds*len(unalignedMsgs))
		out["unaligned.tracker_bytes_peak"] = float64(tr.Bytes())
		order := make([]unaligned.MemberRef, len(unalignedMsgs))
		for i, m := range unalignedMsgs {
			order[i] = unaligned.MemberRef{Epoch: m.Epoch, Router: m.Digest.RouterID}
		}
		n := len(unalignedMsgs) * w.groups
		table, err := unaligned.NewLambdaTable(w.arrayBits, unaligned.PStarForEdgeProbability(0.5/float64(n), w.arrays*w.arrays))
		if err != nil {
			return err
		}
		table.Threshold(w.arrayBits/4, w.arrayBits/4) // the table memoizes; fill it outside the timing
		var edges [][2]int32
		snapshot := func() { edges = tr.Snapshot(order).Edges(table) }
		snapshot()
		out["unaligned.snapshot_edges_ms_per_span"] = perCall(d, 1, snapshot) / 1e6
		var patErr error
		out["unaligned.er_core_ms_per_span"] = perCall(d, 1, func() {
			g := graph.New(n)
			for _, e := range edges {
				g.AddEdge(int(e[0]), int(e[1]))
			}
			if unaligned.ERTest(g, 12).PatternDetected {
				_, patErr = unaligned.FindPattern(g, unaligned.PatternConfig{Beta: 8, D: 2})
			}
		}) / 1e6
		if patErr != nil {
			return fmt.Errorf("unaligned core finder: %w", patErr)
		}
	}

	// Journal: replay of a four-epoch journal, the read side of the appends
	// the daemon run times, and the bytes a digest costs on disk.
	jdir, err := os.MkdirTemp(outDir(root), "journal-")
	if err != nil {
		return err
	}
	defer removeScratch(jdir)
	jr, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return err
	}
	digests := 0
	for e := 1; e <= 4; e++ {
		for _, m := range p.epochMessages(nil, e) {
			if err := jr.Append(m); err != nil {
				return fmt.Errorf("journal append: %w", err)
			}
			digests++
		}
	}
	if err := jr.Close(); err != nil {
		return err
	}
	var bytes int64
	segs, _ := filepath.Glob(filepath.Join(jdir, "*"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil && fi.Mode().IsRegular() {
			bytes += fi.Size()
		}
	}
	out["journal.bytes_per_digest"] = float64(bytes) / float64(digests)
	var replayErr error
	nsPerDigest := perCall(d, digests, func() {
		jr, err := journal.Open(jdir, journal.Options{})
		if err != nil {
			replayErr = err
			return
		}
		got := 0
		if err := jr.Replay(func(transport.Message) error { got++; return nil }); err != nil {
			replayErr = err
		}
		if got != digests {
			replayErr = fmt.Errorf("replayed %d of %d digests", got, digests)
		}
		if err := jr.Close(); err != nil {
			replayErr = err
		}
	})
	if replayErr != nil {
		return fmt.Errorf("journal replay: %w", replayErr)
	}
	out["journal.replay_digests_per_s"] = 1e9 / nsPerDigest

	// Shard tier: routing, the report envelope codec and the merge, over
	// senders that go nowhere.
	part := shard.Partition{Shards: 2, Slide: w.slide}
	co := shard.NewCoordinator(part, []shard.Sender{nopSender{}, nopSender{}})
	// A fixed number of epochs: the coordinator keeps every routed epoch
	// pending until its report is gathered, and none is here.
	const routed = 200
	var burst []transport.Message
	start := time.Now()
	for e := 1; e <= routed; e++ {
		burst = p.epochMessages(burst[:0], e)
		for _, m := range burst {
			co.Route(m)
		}
	}
	out["shard.route_ns_per_digest"] = float64(time.Since(start).Nanoseconds()) / float64(routed*w.burst())
	c := center.New(w.centerConfig(center.AnalysisIncremental))
	for _, m := range msgs {
		c.Ingest(m)
	}
	rep, err := c.Analyze(span[len(span)-1])
	if err != nil {
		return fmt.Errorf("report for the shard codec: %w", err)
	}
	var codecErr error
	var frame transport.Report
	out["shard.envelope_codec_us_per_report"] = perCall(d, 1, func() {
		if frame, codecErr = shard.EncodeReport(shard.Envelope{Shard: 0, Report: rep}); codecErr == nil {
			_, codecErr = shard.DecodeReport(frame)
		}
	}) / 1e3
	if codecErr != nil {
		return fmt.Errorf("shard envelope codec: %w", codecErr)
	}
	gather := shard.NewCoordinator(part, []shard.Sender{nopSender{}, nopSender{}})
	frames := make([]transport.Report, 256)
	for i := range frames {
		env := shard.Envelope{Report: rep}
		env.Report.Epoch = i + 1
		env.Shard = part.Owner(i + 1)
		if frames[i], err = shard.EncodeReport(env); err != nil {
			return fmt.Errorf("shard envelope codec: %w", err)
		}
	}
	merged := 0
	start = time.Now()
	for _, f := range frames {
		gather.Gather(f)
		merged += len(gather.TakeMerged())
	}
	out["shard.gather_merge_us_per_report"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(frames))
	if merged != len(frames) {
		return fmt.Errorf("shard gather: merged %d of %d reports", merged, len(frames))
	}
	owned := make([]int, part.Shards)
	const epochs = 1000
	for e := 1; e <= epochs; e++ {
		owned[part.Owner(e)]++
	}
	most := 0
	for _, n := range owned {
		if n > most {
			most = n
		}
	}
	out["shard.partition_skew"] = float64(most) * float64(part.Shards) / epochs
	return nil
}
