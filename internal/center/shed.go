package center

import (
	"sort"

	"dcstream/internal/bitvec"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// ShedPolicy picks what the center sacrifices when the memory budget over
// buffered epoch windows is exhausted.
type ShedPolicy int

const (
	// ShedOldest drops whole old epochs to admit new digests — the fleet
	// has moved on, and a recent epoch's verdict is worth more than a stale
	// one's. The default.
	ShedOldest ShedPolicy = iota
	// RejectNew refuses the incoming digest instead, preserving every
	// buffered epoch intact — right when old epochs are about to close and
	// their completeness matters more than fresh arrivals.
	RejectNew
)

// Byte-accounting overheads. The budget tracks retained heap, not wire
// bytes: a digest's cost is its bitmap payload plus the map/slice/struct
// bookkeeping that keeps it live. The constants are deliberate round
// over-estimates — a budget that admits slightly less than the heap could
// hold is safe; one that admits more is an OOM.
const (
	vecOverheadBytes   = 48 // Vector struct + slice header + allocator slack
	entryOverheadBytes = 64 // map entry / index bookkeeping per digest
)

func vecBytes(v *bitvec.Vector) int64 {
	if v == nil {
		return 0
	}
	return int64(len(v.Words()))*8 + vecOverheadBytes
}

func unalignedBytes(d *unaligned.Digest) int64 {
	if d == nil {
		return 0
	}
	sz := int64(entryOverheadBytes)
	for _, group := range d.Rows {
		sz += 24 // group slice header
		for _, v := range group {
			sz += vecBytes(v)
		}
	}
	return sz
}

// retainedBytes estimates the heap a digest message pins while buffered.
func retainedBytes(m transport.Message) int64 {
	switch d := m.(type) {
	case transport.AlignedDigest:
		return vecBytes(d.Bitmap) + entryOverheadBytes
	case transport.UnalignedDigest:
		return unalignedBytes(d.Digest)
	}
	return 0
}

// BufferedBytes reports the byte-accounted size of every buffered epoch
// window — retained digests plus, in incremental mode, the aligned
// accumulators and unaligned tracker evidence — the number the memory
// budget constrains.
func (c *Center) BufferedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bufferedBytes
}

// SetMaxEpochs changes the epoch-ring bound at runtime (config reload).
// Values below 1 clamp to 1 — a ring of zero width would make every digest
// late, and a negative bound would turn the eviction loop into a spin.
// Shrinking does not evict immediately; the next Ingest that needs room
// evicts down to the new bound.
func (c *Center) SetMaxEpochs(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.MaxEpochs = n
}

// admitLocked decides whether a digest needing `need` more buffered bytes
// fits the memory budget, shedding old epochs first when the policy allows.
// It never sheds `epoch` itself — the window the digest is being filed into.
// A false return means the digest must be rejected (the budget is exhausted
// and nothing sheddable remains, or the policy is RejectNew). Caller holds
// c.mu.
func (c *Center) admitLocked(epoch int, need int64) bool {
	if c.cfg.MemoryBudgetBytes <= 0 || need <= 0 {
		return true
	}
	if c.bufferedBytes+need <= c.cfg.MemoryBudgetBytes {
		return true
	}
	if c.cfg.Shedding == RejectNew {
		return false
	}
	for c.bufferedBytes+need > c.cfg.MemoryBudgetBytes {
		// victimLocked pins the same victim ordering ring eviction uses —
		// non-held epochs go before quorum-held ones, but memory pressure
		// still breaks a hold when nothing else remains: refusing would
		// either OOM or silently starve newer epochs, and a shed window is
		// honestly reported while a wedged center reports nothing.
		victim := c.victimLocked(epoch)
		if victim < 0 {
			return false
		}
		c.shedLocked(victim)
	}
	return true
}

// shedLocked drops one whole buffered epoch for memory pressure and files
// its tombstone report. The epoch is closed exactly as an eviction closes
// it (floor raise or mid-ring tombstone — a late digest can never silently
// reopen it), but unlike an eviction it leaves a WindowReport behind:
// Degraded and Shed, with ShedDigests saying how many digests died with it.
// Callers of Analyze and TakeShedReports see the loss instead of inferring
// it from a counter delta. Caller holds c.mu.
func (c *Center) shedLocked(victim int) {
	w := c.windows[victim]
	rep := WindowReport{
		Epoch:         victim,
		Routers:       len(w.reporters()),
		Degraded:      true,
		Shed:          true,
		ShedDigests:   w.digests(),
		SpanStart:     victim,
		RetiredEpochs: []int{victim},
	}
	// releaseLocked returns the window's digest bytes *and* its incremental
	// state — the aligned accumulator and the tracker evidence touching the
	// epoch — so shedding actually frees what the budget charged.
	c.releaseLocked(victim, w)
	anyOlder := false
	for e := range c.windows {
		if e < victim {
			anyOlder = true
			break
		}
	}
	if !anyOlder {
		c.raiseFloor(victim)
	} else {
		c.evicted[victim] = true
	}
	c.cfg.Stats.ShedDigests.Add(int64(rep.ShedDigests))
	c.cfg.Stats.ShedEpochs.Add(1)
	if c.shedReports == nil {
		c.shedReports = make(map[int]WindowReport)
	}
	c.shedReports[victim] = rep
}

// TakeShedReports drains the tombstone reports of epochs shed since the
// last call, oldest first. daemon.Node forwards them to its report sinks and
// retires their journal frames; a report handed out here will no longer be
// returned by Analyze.
func (c *Center) TakeShedReports() []WindowReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.shedReports) == 0 {
		return nil
	}
	out := make([]WindowReport, 0, len(c.shedReports))
	for _, rep := range c.shedReports {
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	c.shedReports = nil
	return out
}
