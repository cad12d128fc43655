package join

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// bandPairKey identifies one oriented result pair. Every test tuple
// carries a unique Seq; the other fields catch a pair built from the
// wrong arena slot or with swapped sides.
type bandPairKey struct {
	rSeq, sSeq uint64
	rKey, sKey int64
	rAux, sAux int64
	rRel, sRel matrix.Side
}

func keyOfPair(p Pair) bandPairKey {
	return bandPairKey{p.R.Seq, p.S.Seq, p.R.Key, p.S.Key, p.R.Aux, p.S.Aux, p.R.Rel, p.S.Rel}
}

// probeReference is the per-tuple reference: Probe each tuple on its
// own and keep the candidates Predicate.Matches accepts.
func probeReference(o *OrderedIndex, ps []Tuple, rel matrix.Side, p Predicate) map[bandPairKey]int {
	want := make(map[bandPairKey]int)
	for _, probe := range ps {
		o.Probe(probe, func(stored Tuple) {
			if rel == matrix.SideR {
				if p.Matches(probe, stored) {
					want[keyOfPair(Pair{R: probe, S: stored})]++
				}
			} else if p.Matches(stored, probe) {
				want[keyOfPair(Pair{R: stored, S: probe})]++
			}
		})
	}
	return want
}

// nestedLoop is the brute-force oracle the per-tuple reference must
// itself agree with.
func nestedLoop(stored, ps []Tuple, rel matrix.Side, p Predicate) map[bandPairKey]int {
	want := make(map[bandPairKey]int)
	for _, probe := range ps {
		for _, st := range stored {
			r, s := probe, st
			if rel == matrix.SideS {
				r, s = st, probe
			}
			if p.Matches(r, s) {
				want[keyOfPair(Pair{R: r, S: s})]++
			}
		}
	}
	return want
}

// batchCollect drives ProbeBatchCollect over ps in runs of random
// length, appending to one buffer that starts with a sentinel pair and
// carries stale capacity, as the joiners' reused pair buffers do.
func batchCollect(t *testing.T, rng *rand.Rand, o *OrderedIndex, ps []Tuple, rel matrix.Side, p Predicate) map[bandPairKey]int {
	t.Helper()
	sentinel := Pair{R: Tuple{Seq: 1 << 62}, S: Tuple{Seq: 1 << 62}}
	out := make([]Pair, 1, 64)
	out[0] = sentinel
	for start := 0; start < len(ps); {
		end := start + 1 + rng.Intn(70)
		if end > len(ps) {
			end = len(ps)
		}
		o.ProbeBatchCollect(ps[start:end], rel, p, &out)
		start = end
	}
	if out[0].R.Seq != sentinel.R.Seq || out[0].S.Seq != sentinel.S.Seq {
		t.Fatal("batch probe overwrote pairs already in the buffer")
	}
	got := make(map[bandPairKey]int)
	for _, pr := range out[1:] {
		if pr.R.Rel != matrix.SideR || pr.S.Rel != matrix.SideS {
			t.Fatalf("misoriented pair %+v", keyOfPair(pr))
		}
		got[keyOfPair(pr)]++
	}
	return got
}

func sameMultiset(t *testing.T, label string, got, want map[bandPairKey]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct pairs, want %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: pair %+v seen %d times, want %d", label, k, got[k], n)
		}
	}
}

// TestOrderedIndexProbeBatchMatchesProbe checks that the gather /
// materialize batch probe returns exactly the pair multiset of
// per-tuple Probe plus Predicate.Matches, across both orientations,
// dummies on both sides, residual and residual-free predicates, width
// 0, negative keys, duplicate runs far longer than a node (so equal
// keys straddle splits and separators), and the rebuilt state after
// Retain.
func TestOrderedIndexProbeBatchMatchesProbe(t *testing.T) {
	oddSum := func(r, s Tuple) bool { return (r.Aux+s.Aux)%3 != 0 }
	cases := []struct {
		name     string
		width    int64
		lo, hi   int64 // key domain [lo, hi)
		stored   int
		residual func(r, s Tuple) bool
	}{
		{"band", 3, 0, 2000, 3000, nil},
		{"width0", 0, 0, 500, 3000, nil},
		{"negative", 5, -1500, 200, 3000, nil},
		{"duplicates", 1, -3, 4, 2500, nil},
		{"residual", 2, -300, 300, 3000, oddSum},
		{"duplicates-residual", 0, 0, 3, 2000, oddSum},
	}
	for ci, c := range cases {
		for _, rel := range []matrix.Side{matrix.SideR, matrix.SideS} {
			c, rel := c, rel
			t.Run(c.name+"/"+rel.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*ci) + int64(rel)))
				p := BandJoin(c.name, c.width, c.residual)
				mk := func(side matrix.Side, seq uint64) Tuple {
					return Tuple{
						Rel: side, Key: c.lo + rng.Int63n(c.hi-c.lo), Aux: rng.Int63n(1000),
						Size: 8, Seq: seq, Dummy: rng.Intn(10) == 0,
					}
				}
				o := NewOrderedIndex(c.width)
				stored := make([]Tuple, c.stored)
				for i := range stored {
					stored[i] = mk(1-rel, uint64(i+1))
					o.Insert(stored[i])
				}
				ps := make([]Tuple, 200)
				for i := range ps {
					ps[i] = mk(rel, uint64(1e6+i))
				}
				want := probeReference(o, ps, rel, p)
				sameMultiset(t, "per-tuple probe vs nested loop", want, nestedLoop(stored, ps, rel, p))
				sameMultiset(t, "batch vs per-tuple probe", batchCollect(t, rng, o, ps, rel, p), want)

				keep := func(tp Tuple) bool { return tp.Seq%3 != 0 }
				if o.Retain(keep) == 0 {
					t.Fatal("Retain removed nothing")
				}
				var kept []Tuple
				for _, tp := range stored {
					if keep(tp) {
						kept = append(kept, tp)
					}
				}
				want = probeReference(o, ps, rel, p)
				sameMultiset(t, "after Retain: per-tuple probe vs nested loop", want, nestedLoop(kept, ps, rel, p))
				sameMultiset(t, "after Retain: batch vs per-tuple probe", batchCollect(t, rng, o, ps, rel, p), want)
			})
		}
	}
}

// TestOrderedIndexDuplicatesKeepInsertionOrder pins the insert tie
// rule: equal keys enumerate in insertion order, also when a split
// lifts one of them into a parent as a separator.
func TestOrderedIndexDuplicatesKeepInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := NewOrderedIndex(0)
	for i := 0; i < 20000; i++ {
		o.Insert(Tuple{Rel: matrix.SideS, Key: rng.Int63n(5), Seq: uint64(i + 1)})
	}
	last := make(map[int64]uint64)
	n := 0
	o.Scan(func(tp Tuple) bool {
		if tp.Seq < last[tp.Key] {
			t.Fatalf("key %d: seq %d enumerated after seq %d", tp.Key, tp.Seq, last[tp.Key])
		}
		last[tp.Key] = tp.Seq
		n++
		return true
	})
	if n != 20000 {
		t.Fatalf("scan visited %d tuples", n)
	}
}

// TestOrderedIndexProbeBatchCapsScratch runs one batch whose hits far
// exceed maxHitsCap: the output must still be complete, and the gather
// scratch the index keeps afterwards must be capped.
func TestOrderedIndexProbeBatchCapsScratch(t *testing.T) {
	const stored, probes = 3000, 40
	o := NewOrderedIndex(0)
	for i := 0; i < stored; i++ {
		o.Insert(Tuple{Rel: matrix.SideS, Key: 7, Size: 8, Seq: uint64(i + 1)})
	}
	ps := make([]Tuple, probes)
	for i := range ps {
		ps[i] = Tuple{Rel: matrix.SideR, Key: 7, Size: 8, Seq: uint64(1e6 + i)}
	}
	if stored*probes <= maxHitsCap {
		t.Fatal("batch too small to exceed maxHitsCap")
	}
	var out []Pair
	o.ProbeBatchCollect(ps, matrix.SideR, BandJoin("cap", 0, nil), &out)
	if len(out) != stored*probes {
		t.Fatalf("batch produced %d pairs, want %d", len(out), stored*probes)
	}
	if cap(o.hits) > maxHitsCap {
		t.Fatalf("retained gather scratch cap %d, want <= %d", cap(o.hits), maxHitsCap)
	}
}

// TestMaterializeSkipsDummyHitsWithoutArenaRead drives the shared
// materializer from a hash index with hits whose offsets point outside
// the arena: a dummy hit, and any hit of a dummy probe, must be
// dropped on the meta word and probe flag alone — reading the arena
// for them would panic.
func TestMaterializeSkipsDummyHitsWithoutArenaRead(t *testing.T) {
	h := NewHashIndex()
	for i := 0; i < 10; i++ {
		h.Insert(Tuple{Rel: matrix.SideS, Key: int64(i), Size: 8, Seq: uint64(i + 1)})
	}
	live := Tuple{Rel: matrix.SideR, Key: 3, Size: 8, Seq: 100}
	dummyProbe := Tuple{Rel: matrix.SideR, Key: 3, Size: 8, Seq: 101, Dummy: true}
	ps := []Tuple{live, dummyProbe}
	const outside = int32(1 << 30)
	dummyMeta := Tuple{Dummy: true, Rel: matrix.SideS}.metaWord()
	liveMeta := Tuple{Rel: matrix.SideS}.metaWord()
	off := h.findSlot(hashKey(3), 3).inline[0]
	hits := []probeHit{
		{probe: 0, off: outside, meta: dummyMeta},
		{probe: 0, off: off, meta: h.arena.metaAt(off)},
		{probe: 1, off: outside, meta: liveMeta},
		{probe: 1, off: outside, meta: dummyMeta},
	}
	for _, p := range []Predicate{EquiJoin("plain", nil), EquiJoin("residual", func(r, s Tuple) bool { return true })} {
		var out []Pair
		h.collect(ps, append([]probeHit(nil), hits...), matrix.SideR, p, &out)
		if len(out) != 1 || out[0].R.Seq != live.Seq || out[0].S.Key != 3 {
			t.Fatalf("%s: materialized %+v, want the one live pair", p.Name, out)
		}
	}

	// End to end: dummies stored and probing never reach the output.
	h.Insert(Tuple{Rel: matrix.SideS, Key: 3, Size: 8, Seq: 50, Dummy: true})
	var out []Pair
	h.ProbeBatchCollect(ps, matrix.SideR, EquiJoin("e2e", nil), &out)
	if len(out) != 1 || out[0].S.Dummy || out[0].R.Dummy {
		t.Fatalf("probe with dummies on both sides produced %+v", out)
	}
}
