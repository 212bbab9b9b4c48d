package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/daemon"
	"dcstream/internal/shard"
	"dcstream/internal/stats"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// ShardsParams sizes the scatter/gather scaling benchmark. One seeded digest
// stream (both kinds, every router, every epoch) is partitioned by the shard
// tier's span-ownership function and each shard's slice is ingested and
// drained in isolation, timed serially. The headline numbers are the
// distributed critical path — the slowest shard's time, which is the wall
// time of a deployment with one host per shard; measuring shards one at a
// time keeps the figure honest on machines with fewer cores than shards,
// where a concurrent run would just multiplex one CPU. Every width is also
// pushed through a real in-process cluster — TCP framing, JSON report
// envelopes, the coordinator merge — whose merged verdicts are checked
// against a single un-sharded center; the run fails loudly on divergence.
type ShardsParams struct {
	Seed    uint64
	Routers int   // digests of each kind per epoch
	Epochs  int   // epochs streamed
	Bits    int   // aligned bitmap width
	Subset  int   // detector subset n'
	Groups  int   // unaligned groups per digest
	Arrays  int   // unaligned arrays per group
	Shards  []int // cluster widths to measure, first is the baseline
	// Workers is each shard's intra-span analysis parallelism. The default
	// -1 (serial) keeps the shard fan-out as the only parallelism in the
	// run, so the scaling column measures sharding and nothing else.
	Workers int
	// Trials repeats each width's critical-path measurement and keeps the
	// fastest trial — the standard defense against scheduler and GC noise
	// when wall-timing sub-second sections.
	Trials int
}

// ShardsParamsFor returns the standard sizing for a scale.
func ShardsParamsFor(seed uint64, s Scale) ShardsParams {
	p := ShardsParams{Seed: seed, Bits: 1 << 12, Subset: 96, Groups: 4, Arrays: 10,
		Shards: []int{1, 2, 4}, Workers: -1, Trials: 3}
	switch s {
	case ScaleTest:
		p.Routers, p.Epochs = 8, 24
		p.Bits, p.Groups, p.Arrays = 1<<11, 2, 4
		p.Trials = 1
	case ScalePaper:
		p.Routers, p.Epochs = 32, 150
		p.Trials = 5
	default:
		p.Routers, p.Epochs = 16, 60
	}
	return p
}

// ShardsCell is one cluster width's measurement. The ingest/finalize columns
// are per-shard critical path (max over shards, each measured in isolation);
// ClusterWallMillis is the same stream through the in-process TCP cluster on
// this one host, so it carries the transport and merge overhead but is bounded
// below by the host's core count, not the shard count.
type ShardsCell struct {
	Shards            int
	IngestMillis      float64 // critical path: slowest shard's ingest
	FinalizeMillis    float64 // critical path: slowest shard's drain
	TotalMillis       float64
	SpeedupIngest     float64 // baseline ingest / this ingest
	SpeedupTotal      float64
	MaxSpanShare      float64 // slowest shard's fraction of the spans (ideal 1/N)
	ClusterWallMillis float64 // end-to-end in-process cluster, single host
	Reports           int
}

// ShardsResult reports the scaling table.
type ShardsResult struct {
	Params ShardsParams
	Cells  []ShardsCell
}

// Table renders the comparison.
func (r *ShardsResult) Table() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Shards),
			f1(c.IngestMillis),
			f1(c.FinalizeMillis),
			f1(c.TotalMillis),
			fmt.Sprintf("%.2fx", c.SpeedupIngest),
			fmt.Sprintf("%.2fx", c.SpeedupTotal),
			fmt.Sprintf("%.0f%%", 100*c.MaxSpanShare),
			f1(c.ClusterWallMillis),
			fmt.Sprintf("%d", c.Reports),
		})
	}
	return table(
		fmt.Sprintf("Sharded analysis tier, per-shard critical path (%d routers x 2 kinds x %d epochs, %d-bit aligned, %dx%d unaligned, serial per-span analysis, best of %d trials)",
			r.Params.Routers, r.Params.Epochs, r.Params.Bits, r.Params.Groups, r.Params.Arrays, r.Params.Trials),
		[]string{"shards", "ingest ms", "finalize ms", "total ms", "ingest speedup", "total speedup", "span share", "cluster wall ms", "reports"},
		rows,
	) + "ingest/finalize = slowest shard measured in isolation (wall time with one host per shard);\n" +
		"span share = that shard's fraction of the analysis spans, the hash-partition bound on speedup\n" +
		"(ideal 1/N); cluster wall = same stream through the in-process TCP cluster on this one host;\n" +
		"every width's merged verdicts verified against a single un-sharded center over the same stream\n"
}

// buildShardsWorkload draws the digest stream once; every cluster width sees
// byte-identical input in identical order.
func buildShardsWorkload(p ShardsParams) []transport.Message {
	const arrayBits = 512
	rng := stats.NewRand(p.Seed)
	fill := func(v *bitvec.Vector, n, space int) {
		for i := 0; i < n; i++ {
			v.Set(rng.Intn(space))
		}
	}
	shared := bitvec.New(arrayBits)
	fill(shared, arrayBits/3, arrayBits)
	msgs := make([]transport.Message, 0, 2*p.Routers*p.Epochs)
	for e := 1; e <= p.Epochs; e++ {
		for r := 0; r < p.Routers; r++ {
			bm := bitvec.New(p.Bits)
			fill(bm, p.Bits/4, p.Bits)
			msgs = append(msgs, transport.AlignedDigest{RouterID: r, Epoch: e, Bitmap: bm})
			d := &unaligned.Digest{RouterID: r, Rows: make([][]*bitvec.Vector, p.Groups)}
			for g := range d.Rows {
				d.Rows[g] = make([]*bitvec.Vector, p.Arrays)
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

func messageEpoch(m transport.Message) int {
	switch d := m.(type) {
	case transport.AlignedDigest:
		return d.Epoch
	case transport.UnalignedDigest:
		return d.Epoch
	}
	return 0
}

// clearRetired normalizes RetiredEpochs before comparing multi-shard output
// to the single-center reference: the field logs which buffered epochs the
// reporting center freed when a span closed, and a shard owning only every
// Nth span batches that housekeeping differently — it is not analysis
// output. The 1-shard cells compare verbatim.
func clearRetired(reps []center.WindowReport) []center.WindowReport {
	out := append([]center.WindowReport(nil), reps...)
	for i := range out {
		out[i].RetiredEpochs = nil
	}
	return out
}

// runCriticalPath measures one width's per-shard critical path: each shard's
// slice of the stream is ingested into its own partition-configured center and
// drained, timed in isolation, one shard after another. Returns the slowest
// ingest, the slowest drain, the merged (epoch-sorted) reports, and the
// slowest shard's share of the reported spans.
func runCriticalPath(p ShardsParams, ccfg center.Config, n int, msgs []transport.Message) (ingest, finalize time.Duration, reps []center.WindowReport, maxShare float64, err error) {
	part := shard.Partition{Shards: n, Slide: ccfg.WindowSlide}
	slices := make([][]transport.Message, n)
	for _, m := range msgs {
		for _, s := range part.ShardsFor(messageEpoch(m)) {
			slices[s] = append(slices[s], m)
		}
	}
	maxSpans := 0
	for i := 0; i < n; i++ {
		scfg := ccfg
		scfg.OwnsEpoch = part.OwnsEpoch(i)
		scfg.OwnsSpan = part.OwnsSpan(i)
		node := daemon.NewNode(scfg, nil)
		// Collect the previous shard's garbage outside the timed sections:
		// each shard models a separate host, and without this the later,
		// narrower cells pay GC debt inherited from the earlier ones.
		runtime.GC()
		t0 := time.Now()
		for _, m := range slices[i] {
			node.Center.Ingest(m)
		}
		d := time.Since(t0)
		if d > ingest {
			ingest = d
		}
		t1 := time.Now()
		shardReps, derr := node.Drain()
		d = time.Since(t1)
		if derr != nil {
			return 0, 0, nil, 0, fmt.Errorf("shard %d drain: %v", i, derr)
		}
		if d > finalize {
			finalize = d
		}
		if len(shardReps) > maxSpans {
			maxSpans = len(shardReps)
		}
		reps = append(reps, shardReps...)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Epoch < reps[j].Epoch })
	if len(reps) > 0 {
		maxShare = float64(maxSpans) / float64(len(reps))
	}
	return ingest, finalize, reps, maxShare, nil
}

// runClusterWall pushes the stream through a real in-process cluster — TCP
// scatter, JSON report gather, coordinator merge — and returns the wall time
// and the merged reports. This is the verification path and the single-host
// overhead column.
func runClusterWall(ccfg center.Config, n int, msgs []transport.Message) (time.Duration, []center.WindowReport, error) {
	cl, err := daemon.NewCluster(daemon.ClusterConfig{Shards: n, Center: ccfg})
	if err != nil {
		return 0, nil, fmt.Errorf("starting cluster: %v", err)
	}
	t0 := time.Now()
	for _, m := range msgs {
		cl.Route(m)
	}
	if err := cl.Quiesce(5 * time.Minute); err != nil {
		closeErr := cl.Close()
		_ = closeErr // the quiesce failure is the one worth reporting
		return 0, nil, err
	}
	merged, err := cl.AnalyzeAll(5 * time.Minute)
	wall := time.Since(t0)
	if closeErr := cl.Close(); err == nil && closeErr != nil {
		err = fmt.Errorf("closing cluster: %w", closeErr)
	}
	if err != nil {
		return 0, nil, err
	}
	reps := make([]center.WindowReport, 0, len(merged))
	for _, m := range merged {
		if m.Synthesized {
			return 0, nil, fmt.Errorf("cluster synthesized a report for epoch %d in a healthy run", m.Report.Epoch)
		}
		reps = append(reps, m.Report)
	}
	return wall, reps, nil
}

func shards(seed uint64, s Scale, workers int) (Result, error) {
	p := ShardsParamsFor(seed, s)
	if workers != 0 {
		// The default keeps per-span analysis serial so the scaling column
		// isolates the shard fan-out; an explicit -workers overrides that
		// for oversubscription studies.
		p.Workers = workers
	}
	return RunShards(p)
}

// RunShards measures every configured cluster width over one shared workload.
func RunShards(p ShardsParams) (*ShardsResult, error) {
	if len(p.Shards) == 0 {
		return nil, fmt.Errorf("shards: no cluster widths configured")
	}
	msgs := buildShardsWorkload(p)
	// MaxEpochs above the stream length: the whole stream is routed before
	// the drain, and ring eviction mid-measurement would make the cells
	// incomparable (each width would evict different epochs).
	ccfg := center.Config{SubsetSize: p.Subset, Parallelism: p.Workers, MaxEpochs: p.Epochs + 2}

	ref := daemon.NewNode(ccfg, nil)
	for _, m := range msgs {
		ref.Center.Ingest(m)
	}
	want, err := ref.Drain()
	if err != nil {
		return nil, fmt.Errorf("shards: reference drain: %v", err)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Epoch < want[j].Epoch })

	if p.Trials < 1 {
		p.Trials = 1
	}
	res := &ShardsResult{Params: p}
	for _, n := range p.Shards {
		var ingest, finalize time.Duration
		var got []center.WindowReport
		var maxShare float64
		for trial := 0; trial < p.Trials; trial++ {
			ti, tf, treps, tshare, err := runCriticalPath(p, ccfg, n, msgs)
			if err != nil {
				return nil, fmt.Errorf("shards: %d-shard critical path: %v", n, err)
			}
			if trial == 0 || ti < ingest {
				ingest = ti
			}
			if trial == 0 || tf < finalize {
				finalize = tf
			}
			got, maxShare = treps, tshare
		}
		if n == 1 {
			if !reflect.DeepEqual(got, want) {
				return nil, fmt.Errorf("shards: 1-shard reports are not bit-identical to the single-center reference (%d vs %d reports)", len(got), len(want))
			}
		} else if !reflect.DeepEqual(clearRetired(got), clearRetired(want)) {
			return nil, fmt.Errorf("shards: %d-shard reports diverged from the single-center reference (%d vs %d reports)", n, len(got), len(want))
		}

		wall, clusterGot, err := runClusterWall(ccfg, n, msgs)
		if err != nil {
			return nil, fmt.Errorf("shards: %d-shard cluster: %v", n, err)
		}
		if n == 1 {
			if !reflect.DeepEqual(clusterGot, want) {
				return nil, fmt.Errorf("shards: 1-shard cluster merge is not bit-identical to the single-center reference (%d vs %d reports)", len(clusterGot), len(want))
			}
		} else if !reflect.DeepEqual(clearRetired(clusterGot), clearRetired(want)) {
			return nil, fmt.Errorf("shards: %d-shard cluster merge diverged from the single-center reference (%d vs %d reports)", n, len(clusterGot), len(want))
		}

		res.Cells = append(res.Cells, ShardsCell{
			Shards:            n,
			IngestMillis:      float64(ingest.Microseconds()) / 1000,
			FinalizeMillis:    float64(finalize.Microseconds()) / 1000,
			TotalMillis:       float64((ingest + finalize).Microseconds()) / 1000,
			MaxSpanShare:      maxShare,
			ClusterWallMillis: float64(wall.Microseconds()) / 1000,
			Reports:           len(got),
		})
	}
	base := res.Cells[0]
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.IngestMillis > 0 {
			c.SpeedupIngest = base.IngestMillis / c.IngestMillis
		}
		if c.TotalMillis > 0 {
			c.SpeedupTotal = base.TotalMillis / c.TotalMillis
		}
	}
	return res, nil
}
