// Package shard splits the analysis-center tier across N processes and
// merges their verdicts back into one stream. Each shard runs an unmodified
// center.Center — journal, quorum gate, shedding, and streaming accumulators
// all unchanged — over a deterministic slice of the digest space, while a
// thin coordinator scatters ingest across the shards and gathers their
// WindowReports into one epoch-ordered verdict sequence.
//
// The partition unit is the epoch (the span, in sliding mode), and
// deliberately nothing finer: the aligned detector combines column evidence
// matrix-wide and the unaligned graph builds edges between every vertex
// pair, including pairs from different hash groups, so any partition that
// splits one analysis window's digests across shards would change the
// verdict. Partitioning whole spans keeps every intra-window computation on
// one shard, which is what makes a 1-shard deployment bit-identical to a
// single un-sharded center — the equivalence contract the tests pin.
package shard

import "slices"

// Partition is the deterministic assignment of analysis spans to shards.
// Every participant — coordinator, shards, replay tooling — derives the
// same assignment from the same two integers; nothing about it is
// negotiated at runtime.
type Partition struct {
	// Shards is the shard count N. Values below 1 behave as 1.
	Shards int
	// Slide is the centers' WindowSlide. With sliding windows the span
	// ending at epoch e needs epochs [e-Slide+1, e] as context, so one
	// epoch's digests fan out to every shard owning a span it participates
	// in. Values below 1 behave as 1 (classic per-epoch analysis).
	Slide int
}

func (p Partition) withDefaults() Partition {
	if p.Shards < 1 {
		p.Shards = 1
	}
	if p.Slide < 1 {
		p.Slide = 1
	}
	return p
}

// mix is the splitmix64 finalizer: a full-avalanche bijection over uint64,
// so consecutive epochs land on unrelated shards and every shard sees an
// even 1/N of the spans regardless of how the epoch counter advances.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the shard that owns the span ending at epoch: the one shard
// that buffers the span whole, closes it, and reports its verdict.
func (p Partition) Owner(epoch int) int {
	p = p.withDefaults()
	return int(mix(uint64(int64(epoch))) % uint64(p.Shards))
}

// ShardsFor lists every shard that needs epoch's digests: the owners of the
// spans the epoch participates in — those ending in [epoch, epoch+Slide-1].
// Deduplicated, ascending. At Slide 1 this is exactly {Owner(epoch)}.
func (p Partition) ShardsFor(epoch int) []int {
	p = p.withDefaults()
	// Slide is single digits in practice: a linear dedup beats a set.
	out := make([]int, 0, p.Slide)
	for end := epoch; end < epoch+p.Slide; end++ {
		if s := p.Owner(end); !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

// OwnsEpoch returns the center Config.OwnsEpoch predicate for shard i: the
// epochs whose digests the coordinator routes to it — every epoch feeding a
// span it owns.
func (p Partition) OwnsEpoch(i int) func(epoch int) bool {
	q := p.withDefaults()
	return func(epoch int) bool {
		for end := epoch; end < epoch+q.Slide; end++ {
			if q.Owner(end) == i {
				return true
			}
		}
		return false
	}
}

// OwnsSpan returns the center Config.OwnsSpan predicate for shard i: the
// spans it alone closes and reports. In sliding mode this is strictly
// narrower than OwnsEpoch — the shard buffers neighbouring epochs as span
// context but must not emit their spans' verdicts.
func (p Partition) OwnsSpan(i int) func(epoch int) bool {
	q := p.withDefaults()
	return func(epoch int) bool { return q.Owner(epoch) == i }
}
