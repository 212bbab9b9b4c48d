package unaligned

import (
	"slices"
	"sort"
	"sync/atomic"

	"dcstream/internal/bitvec"
)

// Tracker accounting constants, in the same deterministic-estimate spirit as
// the center's shed ledger: the budget should see incremental state the same
// way it sees buffered digests.
const (
	trMemberBytes = 64 // member struct + map entry
	trGroupBytes  = 16 // per-group slice headers
	trRowBytes    = 8  // cached row weight
	trPairBytes   = 96 // pair record + map entry
	trEntryBytes  = 24 // one row-evidence entry
)

// TrackerConfig carries the analysis parameters the ingest-time λ prune must
// stay consistent with. Zero values mean the center's dynamic defaults
// (TargetP1 = 0.5/n, CoreP1 = 8/n).
type TrackerConfig struct {
	TargetP1 float64
	CoreP1   float64
	// Reach is the sliding-window span W: digests are correlated against
	// members at most Reach-1 epochs away (1 = within-epoch only).
	Reach int
}

// MemberRef identifies one ingested digest: a router's bank in one epoch.
type MemberRef struct {
	Epoch  int
	Router int
}

// trMember is one digest as the tracker keeps it: its own copy of the rows,
// flat and group-major — row (g, a) is the ⌈bits/64⌉ words at index
// g*arrays+a — beside their weights, so nothing a caller does to the digest
// after Add can part the cached weights from the bits they count.
type trMember struct {
	ref     MemberRef
	groups  int
	words   []uint64
	weights []int32
	bad     bool  // internally malformed (empty or ragged group); Merge would error
	bits    int   // -1 until a row fixes it
	arrays  int   // -1 until a group fixes it
	bytes   int64 // accounted footprint
}

type trPairKey struct{ a, b MemberRef }

// rowEvidence is one surviving row pair: the two row weights and the exact
// overlap. The final edge decision `count > λ_final(wa,wb)` needs nothing
// else — not the bitmaps, not the row indices.
type rowEvidence struct {
	ga, gb uint32
	wa, wb int32
	count  int32
}

type trPair struct{ entries []rowEvidence }

// Tracker maintains the unaligned correlation state of a whole (possibly
// sliding) window incrementally. For every digest pair within reach it keeps
// the row pairs that survive a deliberately loose λ threshold computed at a
// lower bound of the final vertex count; because the final vertex count can
// only grow, the final λ can only be larger, so the surviving set provably
// contains every row pair that could pass the final threshold. Finalize then
// replays `count > λ_final` over the stored evidence — literally the same
// comparisons the batch path makes — with zero bitmap work.
//
// The loose threshold is taken at the larger of the ER and core-graph edge
// probabilities, so one evidence store serves both graphs of the two-graph
// design. The tracker is not self-synchronizing: the center drives it under
// its own mutex.
type Tracker struct {
	cfg      TrackerConfig
	members  map[MemberRef]*trMember
	byEpoch  map[int][]MemberRef // insertion order per epoch
	verts    map[int]int         // current vertex (group) count per epoch
	maxVerts map[int]int         // historical high-water mark per epoch
	pairs    map[trPairKey]*trPair
	tables   map[uint64]*LambdaTable // prune tables keyed by (bits, arrays, pow2 n-low)
	scratch  []rowEvidence           // correlate's working list, reused pair after pair
	bytes    int64
}

// NewTracker returns an empty tracker.
func NewTracker(cfg TrackerConfig) *Tracker {
	if cfg.Reach < 1 {
		cfg.Reach = 1
	}
	return &Tracker{
		cfg:      cfg,
		members:  map[MemberRef]*trMember{},
		byEpoch:  map[int][]MemberRef{},
		verts:    map[int]int{},
		maxVerts: map[int]int{},
		pairs:    map[trPairKey]*trPair{},
		tables:   map[uint64]*LambdaTable{},
	}
}

// Bytes returns the accounted footprint; it moves exactly by the deltas the
// mutating methods return.
func (t *Tracker) Bytes() int64 { return t.bytes }

func (k trPairKey) canonical() trPairKey {
	if k.b.Epoch < k.a.Epoch || (k.b.Epoch == k.a.Epoch && k.b.Router < k.a.Router) {
		k.a, k.b = k.b, k.a
	}
	return k
}

// pruneTable returns the loose λ table for a pair whose final span is
// guaranteed to hold at least nLow vertices, or nil when no sound prune
// exists (tiny spans where the implied edge probability leaves (0,1): every
// row pair is then kept as evidence, which is cheap precisely because the
// span is tiny). nLow is bucketed to its floor power of two so at most
// log2(n) tables are ever built per geometry.
func (t *Tracker) pruneTable(bits, arrays, nLow int) *LambdaTable {
	if nLow < 1 {
		nLow = 1
	}
	pow2 := 1
	for pow2*2 <= nLow {
		pow2 *= 2
	}
	key := uint64(bits)<<40 | uint64(arrays)<<20 | uint64(pow2)
	if tab, ok := t.tables[key]; ok {
		return tab
	}
	er := t.cfg.TargetP1
	if er == 0 {
		er = 0.5 / float64(pow2)
	}
	core := t.cfg.CoreP1
	if core == 0 {
		core = 8 / float64(pow2)
	}
	p1 := er
	if core > p1 {
		p1 = core
	}
	var tab *LambdaTable
	pstar := PStarForEdgeProbability(p1, arrays*arrays)
	if pstar > 0 && pstar < 1 {
		tab, _ = NewLambdaTable(bits, pstar)
	}
	t.tables[key] = tab // nil is cached too: "no prune" is also an answer
	return tab
}

// Add registers a digest for (epoch, router) and computes row evidence
// against every member within reach, plus the digest's own intra-router group
// pairs. It returns the accounted byte delta. The caller must Remove any
// previous digest for the same (epoch, router) first.
func (t *Tracker) Add(epoch int, d *Digest) int64 {
	ref := MemberRef{Epoch: epoch, Router: d.RouterID}
	m := &trMember{ref: ref, groups: len(d.Rows), bits: -1, arrays: -1, bytes: trMemberBytes}
	for _, rows := range d.Rows {
		m.bytes += trGroupBytes + int64(len(rows))*trRowBytes
		if len(rows) == 0 {
			m.bad = true
			continue
		}
		if m.arrays == -1 {
			m.arrays = len(rows)
		} else if len(rows) != m.arrays {
			m.bad = true
		}
		for _, r := range rows {
			if m.bits == -1 {
				m.bits = r.Len()
			} else if r.Len() != m.bits {
				m.bad = true
			}
		}
	}
	if !m.bad && m.groups > 0 {
		wpr := (m.bits + 63) / 64
		m.words = make([]uint64, m.groups*m.arrays*wpr)
		m.weights = make([]int32, m.groups*m.arrays)
		for g, rows := range d.Rows {
			for a, r := range rows {
				copy(m.words[(g*m.arrays+a)*wpr:], r.Words())
				m.weights[g*m.arrays+a] = int32(r.OnesCount())
			}
		}
		m.bytes += int64(len(m.words)) * 8
	}
	t.members[ref] = m
	t.byEpoch[epoch] = append(t.byEpoch[epoch], ref)
	t.verts[epoch] += m.groups
	if t.verts[epoch] > t.maxVerts[epoch] {
		t.maxVerts[epoch] = t.verts[epoch]
	}
	delta := m.bytes

	if !m.bad {
		// Intra-member group pairs: the induced graph correlates every pair
		// of vertices, including two groups of the same router.
		delta += t.correlate(m, m)
		for e := epoch - t.cfg.Reach + 1; e <= epoch+t.cfg.Reach-1; e++ {
			for _, oref := range t.byEpoch[e] {
				if oref == ref {
					continue
				}
				if o := t.members[oref]; !o.bad && o.bits == m.bits && o.arrays == m.arrays {
					delta += t.correlate(m, o)
				}
			}
		}
	}
	t.bytes += delta
	return delta
}

// correlate computes and stores the surviving row evidence between two
// members (or the intra-member group pairs when m == o).
func (t *Tracker) correlate(m, o *trMember) int64 {
	nLow := t.verts[m.ref.Epoch]
	if o.ref.Epoch != m.ref.Epoch {
		nLow += t.verts[o.ref.Epoch]
	}
	tab := t.pruneTable(m.bits, m.arrays, nLow)
	// Evidence group indices are stored relative to the canonical key order,
	// so SpanEdges can map them to vertex bases without knowing which side
	// was ingested later.
	key := trPairKey{a: m.ref, b: o.ref}.canonical()
	x, y := m, o
	if key.a != x.ref {
		x, y = o, m
	}
	// One pass over each row pair: the λ row for the outer row's weight is
	// fetched once, the pair's threshold is one load from it (-1, which keeps
	// everything, when there is no prune table), and the AND-popcount that
	// decides survival is the exact overlap the evidence stores.
	k, wpr := x.arrays, (x.bits+63)/64
	entries := t.scratch[:0]
	for ga := 0; ga < x.groups; ga++ {
		gbStart := 0
		if o == m {
			gbStart = ga + 1
		}
		for gb := gbStart; gb < y.groups; gb++ {
			for a := ga * k; a < (ga+1)*k; a++ {
				wa, ra := x.weights[a], x.words[a*wpr:(a+1)*wpr]
				var lamRow []atomic.Int32
				if tab != nil {
					lamRow = tab.row(int(wa))
				}
				for b := gb * k; b < (gb+1)*k; b++ {
					wb, lam := y.weights[b], int32(-1)
					if lamRow != nil {
						lam = lamRow[wb].Load() - 1
					}
					if lam < 0 && tab != nil {
						lam = int32(tab.Threshold(int(wa), int(wb)))
					}
					if min(wa, wb) <= lam {
						continue // the overlap cannot exceed the lighter row
					}
					if count := int32(bitvec.AndCountWords(ra, y.words[b*wpr:])); count > lam {
						entries = append(entries, rowEvidence{ga: uint32(ga), gb: uint32(gb), wa: wa, wb: wb, count: count})
					}
				}
			}
		}
	}
	t.scratch = entries
	if len(entries) == 0 {
		return 0
	}
	// The caller guarantees stale pairs were purged, so the slot is fresh.
	t.pairs[key] = &trPair{entries: slices.Clone(entries)}
	return trPairBytes + int64(len(entries))*trEntryBytes
}

// Remove retracts the digest at (epoch, router): the member and every pair
// record touching it are dropped. Returns the (negative) byte delta.
func (t *Tracker) Remove(epoch, router int) int64 {
	ref := MemberRef{Epoch: epoch, Router: router}
	m, ok := t.members[ref]
	if !ok {
		return 0
	}
	delta := -m.bytes
	delete(t.members, ref)
	refs := t.byEpoch[epoch]
	for i, r := range refs {
		if r == ref {
			t.byEpoch[epoch] = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	t.verts[epoch] -= m.groups
	for key, p := range t.pairs {
		if key.a == ref || key.b == ref {
			delta -= trPairBytes + int64(len(p.entries))*trEntryBytes
			delete(t.pairs, key)
		}
	}
	t.bytes += delta
	return delta
}

// DropEpoch discards every member of the epoch and all evidence touching it
// (window eviction, shedding, sliding-window retirement). Returns the
// (negative) byte delta.
func (t *Tracker) DropEpoch(epoch int) int64 {
	var delta int64
	for _, ref := range append([]MemberRef(nil), t.byEpoch[epoch]...) {
		delta += t.Remove(ref.Epoch, ref.Router)
	}
	delete(t.byEpoch, epoch)
	delete(t.verts, epoch)
	delete(t.maxVerts, epoch)
	return delta
}

// spanPair is one member pair's evidence in a snapshot: the vertex bases of
// the canonical-first and canonical-second member, plus the shared (immutable
// once stored) evidence entries.
type spanPair struct {
	ba, bb  int32
	entries []rowEvidence
}

// SpanEvidence is a detached view of the tracker state for one analysis
// span. Snapshot builds it under the center's lock in O(members + pairs);
// Edges then replays the final λ comparisons outside the lock, because a
// stored evidence slice is never mutated in place (replacements swap whole
// records) and the copied metadata is plain values.
type SpanEvidence struct {
	usable   bool
	bits     int
	arrays   int
	vertices []Vertex
	pairs    []spanPair
}

// Snapshot captures the evidence for the given members (in batch Merge
// order). Usable() is false — and the batch fallback must run — when any
// member is missing or malformed, geometries mix, or a span epoch ever
// shrank below its vertex high-water mark (a replacement with fewer groups
// invalidates the loose prune's vertex-count lower bound).
func (t *Tracker) Snapshot(order []MemberRef) *SpanEvidence {
	s := &SpanEvidence{bits: -1, arrays: -1}
	base := make(map[MemberRef]int32, len(order))
	epochOK := map[int]bool{}
	for _, ref := range order {
		m, ok := t.members[ref]
		if !ok || m.bad {
			return s
		}
		if s.bits == -1 {
			s.bits, s.arrays = m.bits, m.arrays
		}
		if m.bits != s.bits || m.arrays != s.arrays {
			return s
		}
		if _, seen := epochOK[ref.Epoch]; !seen {
			epochOK[ref.Epoch] = true
			if t.verts[ref.Epoch] < t.maxVerts[ref.Epoch] {
				return s
			}
		}
		base[ref] = int32(len(s.vertices))
		for g := 0; g < m.groups; g++ {
			s.vertices = append(s.vertices, Vertex{RouterID: ref.Router, Group: g})
		}
	}
	if s.bits <= 0 {
		return s
	}
	s.usable = true
	for i, ra := range order {
		if p, ok := t.pairs[trPairKey{a: ra, b: ra}]; ok {
			s.pairs = append(s.pairs, spanPair{ba: base[ra], bb: base[ra], entries: p.entries})
		}
		for _, rb := range order[i+1:] {
			key := trPairKey{a: ra, b: rb}.canonical()
			if p, ok := t.pairs[key]; ok {
				s.pairs = append(s.pairs, spanPair{ba: base[key.a], bb: base[key.b], entries: p.entries})
			}
		}
	}
	return s
}

// Usable reports whether the evidence reproduces the batch result for this
// span; when false the caller must fall back to the batch path (which also
// reproduces the batch path's error, if the span is malformed).
func (s *SpanEvidence) Usable() bool { return s.usable }

// NumVertices returns the span's merged vertex count.
func (s *SpanEvidence) NumVertices() int { return len(s.vertices) }

// Bits returns the uniform array width.
func (s *SpanEvidence) Bits() int { return s.bits }

// Arrays returns the uniform per-group array count k.
func (s *SpanEvidence) Arrays() int { return s.arrays }

// Vertex returns the identity of vertex v under the batch Merge numbering.
func (s *SpanEvidence) Vertex(v int) Vertex { return s.vertices[v] }

// Edges replays the stored evidence against a final λ table: an edge joins
// two vertices when any surviving row pair's exact overlap beats the
// threshold for its weights — literally the batch BuildGraph predicate.
// Edges come back sorted and deduplicated, so graph construction is
// deterministic regardless of evidence order.
func (s *SpanEvidence) Edges(table *LambdaTable) [][2]int32 {
	var edges [][2]int32
	for _, p := range s.pairs {
		for _, e := range p.entries {
			if int(e.count) > table.Threshold(int(e.wa), int(e.wb)) {
				u, v := p.ba+int32(e.ga), p.bb+int32(e.gb)
				if u > v {
					u, v = v, u
				}
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			out = append(out, e)
		}
	}
	return out
}
