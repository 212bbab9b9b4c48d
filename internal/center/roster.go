package center

import "sort"

// digestKind indexes the digest kinds a router can send. The registry and a
// window's expected set are kept per (router, kind) because the traffic is:
// one dcsnode process sends one kind, and a fleet may mix aligned-only,
// unaligned-only and both-kind routers.
type digestKind uint8

const (
	kindAligned digestKind = iota
	kindUnaligned
	numKinds
)

// kindBits is a set of digest kinds, one bit each.
type kindBits uint8

func (k digestKind) bit() kindBits { return 1 << k }

// rosterRow is one router's registry entry: the newest epoch it has stamped
// on each digest kind it has ever sent.
type rosterRow struct {
	last [numKinds]int
	sent kindBits // which entries of last are meaningful
}

// stamped returns the row after a digest of the given kind and epoch.
func (r rosterRow) stamped(kind digestKind, epoch int) rosterRow {
	if r.sent&kind.bit() == 0 || epoch > r.last[kind] {
		r.last[kind] = epoch
		r.sent |= kind.bit()
	}
	return r
}

// live is the set of kinds the router has stamped at horizon or newer.
func (r rosterRow) live(horizon int) kindBits {
	var out kindBits
	for k := kindAligned; k < numKinds; k++ {
		if r.sent&k.bit() != 0 && r.last[k] >= horizon {
			out |= k.bit()
		}
	}
	return out
}

// newest is the newest epoch stamped on any kind.
func (r rosterRow) newest() int {
	newest, any := 0, false
	for k := kindAligned; k < numKinds; k++ {
		if r.sent&k.bit() != 0 && (!any || r.last[k] > newest) {
			newest, any = r.last[k], true
		}
	}
	return newest
}

// RouterStatus is one registry entry: a router and the newest epoch it has
// stamped on any digest (late or duplicate digests count — they still prove
// the router is alive), overall and per digest kind.
type RouterStatus struct {
	RouterID  int
	LastEpoch int
	// LastAligned and LastUnaligned are the per-kind newest epochs; the Sends
	// flags say which of them the router has ever sent (a router that never
	// sent a kind leaves its epoch zero).
	LastAligned, LastUnaligned   int
	SendsAligned, SendsUnaligned bool
}

// Routers lists every router that has ever reported, sorted by id.
func (c *Center) Routers() []RouterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RouterStatus, 0, len(c.roster))
	for id, row := range c.roster {
		out = append(out, RouterStatus{
			RouterID:       id,
			LastEpoch:      row.newest(),
			LastAligned:    row.last[kindAligned],
			LastUnaligned:  row.last[kindUnaligned],
			SendsAligned:   row.sent&kindAligned.bit() != 0,
			SendsUnaligned: row.sent&kindUnaligned.bit() != 0,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RouterID < out[j].RouterID })
	return out
}

// absentLocked names the routers live for epoch (some kind stamped at
// epoch-MaxWait or newer) that are not among reporters, sorted ascending —
// the quorum gate's Missing and a closing report's MissingRouters. Caller
// holds c.mu.
func (c *Center) absentLocked(epoch int, reporters map[int]bool) []int {
	var missing []int
	horizon := epoch - c.cfg.MaxWait
	for id, row := range c.roster {
		if row.live(horizon) != 0 && !reporters[id] {
			missing = append(missing, id)
		}
	}
	sort.Ints(missing)
	return missing
}

// expectedLocked snapshots what a window opening for epoch waits for: every
// (router, kind) the registry holds live under the MaxWait horizon. The
// digest that opens the window has already registered, so its router is
// judged by prev, its row as it stood before: a router never seen before —
// and with it the fleet's very first epoch — is expected by nobody yet.
// Caller holds c.mu.
func (c *Center) expectedLocked(epoch, opener int, prev rosterRow) map[int]kindBits {
	horizon := epoch - c.cfg.MaxWait
	expect := make(map[int]kindBits, len(c.roster))
	for id, row := range c.roster {
		if id == opener {
			row = prev
		}
		if kinds := row.live(horizon); kinds != 0 {
			expect[id] = kinds
		}
	}
	return expect
}

// arrivedLocked ticks a newly stored digest off its window's expected set.
// Duplicates, budget rejections and late digests never get here. When the
// last expected digest lands the window latches complete and the wake
// channel is poked; the send cannot block (capacity 1, dropped when a poke is
// already pending), so holding c.mu across it is safe. Caller holds c.mu.
func (c *Center) arrivedLocked(w *window, router int, kind digestKind) {
	kinds, ok := w.expect[router]
	if !ok || kinds&kind.bit() == 0 {
		return
	}
	if kinds &^= kind.bit(); kinds != 0 {
		w.expect[router] = kinds
		return
	}
	delete(w.expect, router)
	if len(w.expect) > 0 {
		return
	}
	w.complete = true
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Completed is poked whenever some window's last expected digest has been
// stored: CompleteEpochs then has something to say. One pending poke stands
// for any number of completions.
func (c *Center) Completed() <-chan struct{} { return c.wake }

// CompleteEpochs lists, ascending, the buffered epochs that need not wait for
// quiescence: every (router, kind) the registry held live when the window
// opened has been stored and the quorum gate is not holding the window. The
// list is a prefix: it stops at the first epoch that is this center's to
// report, not yet reported, and fails the test — the tick policy has that one
// to close first (under a sliding window closing a newer span would even
// foreclose it), so everything behind it waits for the ticks too.
func (c *Center) CompleteEpochs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, e := range c.epochsLocked() {
		if c.cfg.WindowSlide > 1 && c.spanClosedValid && e <= c.spanClosed {
			continue // context of a span already reported
		}
		if c.cfg.OwnsSpan != nil && !c.cfg.OwnsSpan(e) {
			continue // another shard's to report
		}
		if !c.windows[e].complete || c.quorumLocked(e).Hold {
			break
		}
		out = append(out, e)
	}
	return out
}
