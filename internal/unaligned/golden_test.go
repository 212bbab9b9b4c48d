package unaligned

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/stats"
)

// updateGolden rewrites testdata/tracker_golden.txt from whatever correlate
// loop the package holds. The table is only ever regenerated from a checkout
// of the commit that is being pinned (see .claude/skills/verify/SKILL.md); a
// change to the loop that moves it is a bug.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tracker_golden.txt from this tree's tracker")

const trackerGoldenFile = "testdata/tracker_golden.txt"

// bankDigest builds a digest of the given geometry whose rows are filled to
// about fill, the band real banks run in. Rows past 600 bits take one of four
// exact weights instead: a λ entry costs O(bits) to compute, and with
// binomial weights filling the tables would be all of these tests' run time.
func bankDigest(rng *rand.Rand, router, groups, arrays, bits int, fill float64) *Digest {
	d := &Digest{RouterID: router, Rows: make([][]*bitvec.Vector, groups)}
	for g := range d.Rows {
		d.Rows[g] = make([]*bitvec.Vector, arrays)
		for a := range d.Rows[g] {
			v := bitvec.New(bits)
			if bits > 600 {
				v = bitvec.FromIndices(bits, stats.SampleDistinct(rng, bits, int(fill*float64(bits))+9*rng.Intn(4)))
			} else {
				v.FillRandom(fill, rng.Float64)
			}
			d.Rows[g][a] = v
		}
	}
	return d
}

// plantRow gives two digests one common row each, so that row pair's overlap
// is far past any λ.
func plantRow(rng *rand.Rand, a, b *Digest, ga, gb int) {
	v := bitvec.New(a.Rows[0][0].Len())
	v.FillRandom(0.45, rng.Float64)
	a.Rows[ga][rng.Intn(len(a.Rows[ga]))] = v
	b.Rows[gb][rng.Intn(len(b.Rows[gb]))] = v.Clone()
}

// oracleCorrelate is Tracker.correlate's row loop as it stood before the
// flat-word layout (commit 23d0c92), kept verbatim: a λ lookup a row pair
// through Threshold, AndCountAtLeast, then AndCount over the same words for
// every survivor, all through the digest's own [][]*bitvec.Vector. x is the
// canonical-first member.
func oracleCorrelate(tab *LambdaTable, x, y *Digest) []rowEvidence {
	weights := func(d *Digest) [][]int {
		w := make([][]int, len(d.Rows))
		for g, rows := range d.Rows {
			w[g] = make([]int, len(rows))
			for a, r := range rows {
				w[g][a] = r.OnesCount()
			}
		}
		return w
	}
	xw, yw := weights(x), weights(y)
	var entries []rowEvidence
	for ga, ra := range x.Rows {
		gbStart := 0
		if x == y {
			gbStart = ga + 1
		}
		for gb := gbStart; gb < len(y.Rows); gb++ {
			rb := y.Rows[gb]
			for a := range ra {
				wa := xw[ga][a]
				for b := range rb {
					wb := yw[gb][b]
					if tab != nil {
						lam := tab.Threshold(wa, wb)
						minW := wa
						if wb < minW {
							minW = wb
						}
						if minW <= lam {
							continue
						}
						if !bitvec.AndCountAtLeast(ra[a], rb[b], lam+1) {
							continue
						}
					}
					entries = append(entries, rowEvidence{
						ga: uint32(ga), gb: uint32(gb),
						wa: int32(wa), wb: int32(wb),
						count: int32(bitvec.AndCount(ra[a], rb[b])),
					})
				}
			}
		}
	}
	return entries
}

// dumpEvidence renders every stored pair, in canonical key order, as its
// entry count and a hash of the entries in stored order — enough to name the
// pair that moved; the oracle sweep names the entry.
func dumpEvidence(tr *Tracker) []string {
	keys := make([]trPairKey, 0, len(tr.pairs))
	for k := range tr.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.a != b.a {
			return a.a.Epoch < b.a.Epoch || (a.a.Epoch == b.a.Epoch && a.a.Router < b.a.Router)
		}
		return a.b.Epoch < b.b.Epoch || (a.b.Epoch == b.b.Epoch && a.b.Router < b.b.Router)
	})
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		es := tr.pairs[k].entries
		h := fnv.New64a()
		for _, e := range es {
			fmt.Fprintf(h, "%d %d %d %d %d;", e.ga, e.gb, e.wa, e.wb, e.count)
		}
		out = append(out, fmt.Sprintf(" e%dr%d-e%dr%d %d %016x",
			k.a.Epoch, k.a.Router, k.b.Epoch, k.b.Router, len(es), h.Sum64()))
	}
	return out
}

// TestTrackerEvidenceGolden holds the tracker's stored evidence — per member
// pair, the surviving row pairs in stored order — to the
// table the parent commit's correlate loop produced: one-word, eight-word,
// eight-and-a-bit-word and (past maxDenseBits, the λ memo path) 47-word rows,
// one and ten arrays a group, within-epoch and three-epoch reach, with one
// digest removed and a different one added in its place.
func TestTrackerEvidenceGolden(t *testing.T) {
	var got []string
	for _, bits := range []int{64, 512, 520, 3000} {
		for _, arrays := range []int{1, 10} {
			for _, reach := range []int{1, 3} {
				rng := stats.NewRand(uint64(bits*100 + arrays*10 + reach))
				tr := NewTracker(TrackerConfig{Reach: reach})
				routers := 8
				if reach > 1 {
					routers = 6 // keeps the table small; cross-epoch pairs are pruned ones anyway
				}
				var digests []*Digest
				var epochs []int
				for e := 1; e <= reach; e++ {
					for r := 0; r < routers; r++ {
						digests = append(digests, bankDigest(rng, r, 4-r%2, arrays, bits, 0.42))
						epochs = append(epochs, e)
					}
				}
				last := len(digests) - 1
				plantRow(rng, digests[1], digests[6], 0, 2)
				plantRow(rng, digests[2], digests[2], 0, 1)
				plantRow(rng, digests[5], digests[last], 1, 0)
				plantRow(rng, digests[last-1], digests[last], 2, 1)
				for i, d := range digests {
					tr.Add(epochs[i], d)
				}
				repl := bankDigest(rng, 3, len(digests[3].Rows), arrays, bits, 0.42)
				plantRow(rng, repl, repl, 0, 2) // both planted rows are repl's own
				tr.Remove(1, 3)
				tr.Add(1, repl)
				got = append(got, fmt.Sprintf("bits=%d arrays=%d reach=%d pairs=%d",
					bits, arrays, reach, len(tr.pairs)))
				got = append(got, dumpEvidence(tr)...)
			}
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(trackerGoldenFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(trackerGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(buf), "\n")
	for i, line := range strings.Split(text, "\n") {
		if i >= len(want) || line != want[i] {
			w := "<end of table>"
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("tracker evidence moved at line %d\n got %s\nwant %s", i+1, line, w)
		}
	}
	if len(want) != len(strings.Split(text, "\n")) {
		t.Fatalf("golden table has %d lines, the test builds %d", len(want), len(strings.Split(text, "\n")))
	}
}

// TestCorrelateMatchesOracle sweeps seeded fleets — row widths on both sides
// of a word boundary and of maxDenseBits, ragged group counts, planted rows,
// replacements — and after every Add holds the evidence stored for each pair
// the new member took part in to oracleCorrelate under the very table the
// tracker pruned with.
func TestCorrelateMatchesOracle(t *testing.T) {
	rng := stats.NewRand(2502)
	widths := []int{64, 100, 128, 512, 520, 1000}
	const shapes = 220
	unpruned, pruned, kept, dropped := 0, 0, 0, 0
	for s := 0; s < shapes; s++ {
		bits := widths[rng.Intn(len(widths))]
		if s%40 == 7 {
			bits = 3000
		}
		arrays := 1 + rng.Intn(4)
		if s%10 == 3 {
			arrays = 10
		}
		reach := 1 + rng.Intn(3)
		routers := 2 + rng.Intn(7)
		fill := 0.3 + 0.2*rng.Float64()
		tr := NewTracker(TrackerConfig{Reach: reach})
		live := map[MemberRef]*Digest{}
		add := func(epoch int, d *Digest) {
			ref := MemberRef{Epoch: epoch, Router: d.RouterID}
			tr.Add(epoch, d)
			live[ref] = d
			for oref, o := range live {
				if oref.Epoch <= epoch-reach || oref.Epoch >= epoch+reach {
					continue
				}
				nLow := tr.verts[epoch]
				if oref.Epoch != epoch {
					nLow += tr.verts[oref.Epoch]
				}
				tab := tr.pruneTable(bits, arrays, nLow)
				key := trPairKey{a: ref, b: oref}.canonical()
				x, y := d, o
				if key.a != ref {
					x, y = o, d
				}
				want := oracleCorrelate(tab, x, y)
				var got []rowEvidence
				if p, ok := tr.pairs[key]; ok {
					got = p.entries
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("shape %d (bits %d arrays %d reach %d): pair %v evidence diverged from the oracle\n got %v\nwant %v",
						s, bits, arrays, reach, key, got, want)
				}
				switch {
				case tab == nil:
					unpruned++
				case len(want) > 0:
					pruned++
					kept++
				default:
					pruned++
					dropped++
				}
			}
		}
		var all []*Digest
		var at []int
		for e := 1; e <= reach; e++ {
			for r := 0; r < routers; r++ {
				all = append(all, bankDigest(rng, r, 1+rng.Intn(4), arrays, bits, fill))
				at = append(at, e)
			}
		}
		for p := rng.Intn(4); p > 0; p-- {
			a, b := all[rng.Intn(len(all))], all[rng.Intn(len(all))]
			plantRow(rng, a, b, rng.Intn(len(a.Rows)), rng.Intn(len(b.Rows)))
		}
		for i, d := range all {
			add(at[i], d)
		}
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(all))
			repl := bankDigest(rng, all[i].RouterID, len(all[i].Rows), arrays, bits, fill)
			tr.Remove(at[i], all[i].RouterID)
			delete(live, MemberRef{Epoch: at[i], Router: all[i].RouterID})
			add(at[i], repl)
		}
	}
	if unpruned == 0 || kept == 0 || dropped == 0 {
		t.Fatalf("sweep is vacuous: %d pairs with no prune table, %d pruned pairs (%d kept evidence, %d kept none)",
			unpruned, pruned, kept, dropped)
	}
}
