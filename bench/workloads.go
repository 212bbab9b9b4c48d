//go:build linux

package main

import (
	"fmt"
	"strconv"
	"time"

	"dcstream/internal/center"
)

// workload is one traffic mix. The three daemon workloads differ in which
// layer does the work: mixed-udp is analysis-bound, small-udp is
// per-message-bound, wide-tcp-slide is byte- and span-bound. The collector
// workload runs the router half alone. BENCHMARK.json carries the same
// names and the one-line reasons.
type workload struct {
	name string

	// Daemon workloads: fleet geometry, transport and the dcsd flags that
	// differ from the defaults.
	fleet         int
	alignedBits   int     // aligned bitmap width
	alignedFill   float64 // share of aligned bits the background sets
	groups        int     // unaligned flow-split groups; 0 = aligned digests only
	arrays        int
	arrayBits     int
	udp           bool
	datagramBytes int
	subset        int // dcsd -subset; 0 = default
	slide         int // dcsd -slide; 0 = default (per-epoch)
	alignedG      int // planted content length, in aligned-stream packets
	unalignedG    int // planted content length, in 536-byte segments
}

const (
	// segment is the paper's 536-byte MSS payload; the unaligned collector
	// samples packets of this size and skips anything under 500 bytes.
	segment = 536
	// alignedSegment is the payload size of the pool generator's aligned
	// stream. The aligned digest depends on payloads only through their hash,
	// so short payloads give the same digests for a fraction of the set-up
	// time; the collector workload, which times the hash, uses full segments.
	alignedSegment = 64
	// poolVariants is how many digests each router cycles through, one per
	// epoch. Variant 0 is the planted one: every fifth epoch the first 3/8 of
	// the fleet carries the planted content, so detections and
	// non-detections both occur.
	poolVariants = 5

	tick = 50 * time.Millisecond // dcsd -window
	// epochPeriod is not a multiple of the tick, so the tick phase a burst
	// meets sweeps within a run (ten epochs see ten evenly spread phases), and
	// it is longer than the slowest lag a slow half hour of the host produces
	// (220ms on mixed-udp), so an epoch's report is out before the next burst
	// arrives and lag stays a property of one epoch.
	epochPeriod = 257 * time.Millisecond
	// warmEpochs are sent at the epoch period (see warmUp), so most of a
	// set-up is time that does not depend on how fast the host happens to be:
	// the parts that do (go build's start-up, the pools, the daemon's first
	// ingest, which builds its pruning tables) ran half as long again in some
	// half hours as in others, and setup_s with them.
	warmEpochs = 6
	// maxWait is dcsd -max-wait: how many idle ticks the quorum gate may hold
	// an epoch that is short of routers. The default of 2 turns a 150ms stall
	// in mid-burst into a degraded epoch, whose digests are failed
	// operations, and the host this was sized on steals the processor for
	// that long now and then: 2 runs in 80 lost an epoch that way. 8 rides
	// such stalls out (they still show in the lag) and changes nothing while
	// bursts flow.
	maxWait = 8
)

var workloads = []workload{
	{
		name: "mixed-udp", fleet: 32, alignedBits: 8192, alignedFill: 0.25,
		groups: 4, arrays: 10, arrayBits: 512,
		udp: true, datagramBytes: 60000,
		alignedG: 40, unalignedG: 40,
	},
	{
		name: "small-udp", fleet: 256, alignedBits: 512, alignedFill: 0.25,
		udp: true, datagramBytes: 1400, subset: 32,
		alignedG: 24,
	},
	{
		name: "wide-tcp-slide", fleet: 16, alignedBits: 65536, alignedFill: 0.04,
		groups: 4, arrays: 10, arrayBits: 512,
		slide:    3,
		alignedG: 60, unalignedG: 40,
	},
	{name: "collector"}, // no fleet: the router half alone, sized in collector.go
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) isDaemon() bool { return w.fleet > 0 }

// kinds is how many digests one router sends per epoch.
func (w workload) kinds() int {
	if w.groups > 0 {
		return 2
	}
	return 1
}

// burst is the number of digests in one epoch: every router's aligned digest
// and, where the workload has them, every router's but the last's unaligned
// digest (see epochMessages).
func (w workload) burst() int { return w.reportedDigests(w.fleet) }

// reportedDigests is how many digests a report covering the first n routers
// stands for.
func (w workload) reportedDigests(n int) int {
	d := n * w.kinds()
	if w.kinds() == 2 && n == w.fleet {
		d--
	}
	return d
}

// carriers is how many routers (ids 0..carriers-1) see the planted content.
func (w workload) carriers() int { return w.fleet * 3 / 8 }

func (w workload) spanWidth() int {
	if w.slide > 1 {
		return w.slide
	}
	return 1
}

// daemonFlags are the workload's dcsd flags beyond the fixed set in
// startDaemon.
func (w workload) daemonFlags() []string {
	var f []string
	if w.subset > 0 {
		f = append(f, "-subset", strconv.Itoa(w.subset))
	}
	if w.slide > 1 {
		f = append(f, "-slide", strconv.Itoa(w.slide))
	}
	return f
}

// centerConfig mirrors what cmd/dcsd builds from those flags, for the
// reference center and the traced replica.
func (w workload) centerConfig(mode center.AnalysisMode) center.Config {
	return center.Config{
		SubsetSize:  w.subset,
		Analysis:    mode,
		WindowSlide: w.slide,
		MaxEpochs:   4,
		MinRouters:  w.fleet,
		MaxWait:     maxWait,
		// -workers 0 sizes the analysis to the processors the daemon sees,
		// and the benchmark lets it see one (affinity.go).
		Parallelism: 1,
	}
}
