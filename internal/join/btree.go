package join

import "repro/internal/matrix"

// OrderedIndex is a B-tree keyed on Tuple.Key supporting range probes,
// used for band joins (the paper's joiners use "balanced binary trees
// for band joins", §5). A B-tree is used instead of a binary tree for
// cache friendliness; the interface contract is identical.
//
// Tuples live in the shared columnar arena. A tree node holds only
// two parallel columns — the sorted keys and the arena offsets of the
// tuples they belong to — so the binary searches of a descent read a
// dense int64 array, and node splits and insertion shifts move 12
// bytes per entry instead of a whole tuple.
//
// Batch probes run in the same two phases as the hash index's: a
// gather pass walks the tree once per probe over [k-width, k+width],
// collecting (probe, arena offset, meta) hits into a per-index
// scratch, and the arena's materializer then writes every candidate
// straight into its output Pair slot. The range walk already enforces
// the band, so a residual-free band predicate reaches materialization
// with only the dummy flags left to check.
type OrderedIndex struct {
	width int64
	root  *btreeNode
	arena tupleArena
	bytes int64
	hits  []probeHit // batch-probe gather scratch
}

const (
	btreeDegree  = 32                // max children
	btreeMaxKeys = 2*btreeDegree - 1 // keys in a full node
)

// btreeNode is one tree node. keys is sorted, equal keys in insertion
// order; offs[i] is the arena offset of the tuple keyed keys[i].
// Internal nodes have len(children) == len(keys)+1.
type btreeNode struct {
	keys     []int64
	offs     []int32
	children []*btreeNode
}

func (n *btreeNode) leaf() bool { return len(n.children) == 0 }

// NewOrderedIndex returns an empty ordered index whose Probe matches
// stored keys within +-width of the probe key.
func NewOrderedIndex(width int64) *OrderedIndex {
	return &OrderedIndex{width: width, root: &btreeNode{}}
}

// Len returns the number of stored tuples.
func (o *OrderedIndex) Len() int { return o.arena.n }

// Bytes returns the accounted stored volume.
func (o *OrderedIndex) Bytes() int64 { return o.bytes }

// Insert stores t, keeping keys ordered. The descent splits every full
// node it meets before entering it, so the leaf it ends at has room.
// Among equal keys the new entry goes after all existing ones, which
// keeps duplicates in insertion order.
func (o *OrderedIndex) Insert(t Tuple) {
	o.bytes += t.Bytes()
	off := o.arena.append(&t)
	if len(o.root.keys) == btreeMaxKeys {
		old := o.root
		o.root = &btreeNode{children: []*btreeNode{old}}
		o.root.splitChild(0)
	}
	key := t.Key
	n := o.root
	for !n.leaf() {
		i := upperBound(n.keys, key)
		if len(n.children[i].keys) == btreeMaxKeys {
			n.splitChild(i)
			// The lifted median was inserted before t; an equal key
			// must land to its right.
			if key >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
	i := upperBound(n.keys, key)
	n.keys = insertAt(n.keys, i, key)
	n.offs = insertAt(n.offs, i, off)
}

// insertAt inserts v at index i of s.
func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// InsertBatch stores every tuple of ts. Tree insertion cost is
// dominated by the descent, so the batch form is a plain loop.
func (o *OrderedIndex) InsertBatch(ts []Tuple) {
	for i := range ts {
		o.Insert(ts[i])
	}
}

// Reserve preallocates arena blocks for about n stored tuples; tree
// nodes grow on demand.
func (o *OrderedIndex) Reserve(n int) { o.arena.reserve(n) }

// splitChild splits the full child at index i, lifting its median
// entry into n.
func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := btreeDegree - 1

	right := &btreeNode{
		keys: append([]int64(nil), child.keys[mid+1:]...),
		offs: append([]int32(nil), child.offs[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	n.keys = insertAt(n.keys, i, child.keys[mid])
	n.offs = insertAt(n.offs, i, child.offs[mid])
	n.children = insertAt(n.children, i+1, right)
	child.keys = child.keys[:mid]
	child.offs = child.offs[:mid]
}

// upperBound returns the first index whose key is strictly greater
// than k.
func upperBound(keys []int64, k int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first index whose key is >= k.
func lowerBound(keys []int64, k int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gather appends a hit for every entry under n with key in [lo, hi],
// in key order, tagged with the probe index and the stored tuple's
// meta word (see probeHit for why the gather pass reads the arena
// early).
func (o *OrderedIndex) gather(n *btreeNode, lo, hi int64, probe int32, hits []probeHit) []probeHit {
	keys := n.keys
	offs := n.offs[:len(keys)]
	i := lowerBound(keys, lo)
	if n.leaf() {
		for ; i < len(keys) && keys[i] <= hi; i++ {
			hits = append(hits, probeHit{probe: probe, off: offs[i], meta: o.arena.metaAt(offs[i])})
		}
		return hits
	}
	for ; i < len(keys) && keys[i] <= hi; i++ {
		hits = o.gather(n.children[i], lo, hi, probe, hits)
		hits = append(hits, probeHit{probe: probe, off: offs[i], meta: o.arena.metaAt(offs[i])})
	}
	return o.gather(n.children[i], lo, hi, probe, hits)
}

// Probe enumerates stored tuples with Key in [probe.Key-width,
// probe.Key+width], in key order. The scratch is detached while fn
// runs, so fn may probe the index again.
func (o *OrderedIndex) Probe(probe Tuple, fn func(Tuple)) {
	hits := o.gather(o.root, probe.Key-o.width, probe.Key+o.width, 0, o.hits[:0])
	o.hits = nil
	for i := range hits {
		fn(o.arena.at(hits[i].off))
	}
	o.hits = recycleHits(hits)
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out. The gather pass walks the
// tree for each probe's band; the arena then materializes the hits in
// one tight loop. The scratch is flushed through the materializer
// whenever it reaches maxHitsCap, so a high-fanout run never holds
// more than one cap (plus one probe's band) of hits at once.
func (o *OrderedIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	if o.arena.n == 0 {
		return
	}
	// The range walk enforces exactly |r.Key-s.Key| <= width.
	exact := p.Kind == Band && p.Width == o.width && p.Residual == nil
	hits := o.hits[:0]
	for i := range ps {
		k := ps[i].Key
		hits = o.gather(o.root, k-o.width, k+o.width, int32(i), hits)
		if len(hits) >= maxHitsCap {
			o.arena.materialize(ps, hits, rel, p, exact, out)
			hits = hits[:0]
		}
	}
	o.arena.materialize(ps, hits, rel, p, exact, out)
	o.hits = recycleHits(hits)
}

// Scan visits all stored tuples in key order.
func (o *OrderedIndex) Scan(fn func(Tuple) bool) { o.treeScan(o.root, fn) }

func (o *OrderedIndex) treeScan(n *btreeNode, fn func(Tuple) bool) bool {
	for i, off := range n.offs {
		if !n.leaf() && !o.treeScan(n.children[i], fn) {
			return false
		}
		if !fn(o.arena.at(off)) {
			return false
		}
	}
	if !n.leaf() {
		return o.treeScan(n.children[len(n.offs)], fn)
	}
	return true
}

// Retain keeps only tuples passing keep. The tree and arena are
// rebuilt in bulk: migration discards remove large contiguous
// fractions of the state, so a rebuild is both simpler and faster than
// item-wise deletion.
func (o *OrderedIndex) Retain(keep func(Tuple) bool) int {
	kept := make([]Tuple, 0, o.Len())
	o.Scan(func(t Tuple) bool {
		if keep(t) {
			kept = append(kept, t)
		}
		return true
	})
	removed := o.Len() - len(kept)
	if removed == 0 {
		return 0
	}
	o.root = &btreeNode{}
	o.arena = tupleArena{}
	o.bytes = 0
	o.arena.reserve(len(kept))
	// Keys are already sorted; insertion keeps the tree balanced
	// enough (right-leaning fill) for the migration use case.
	for _, t := range kept {
		o.Insert(t)
	}
	return removed
}
