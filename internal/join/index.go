package join

import "repro/internal/matrix"

// Index stores tuples of one relation and enumerates the stored tuples
// that structurally match a probe tuple from the opposite relation.
// Indexes are not safe for concurrent use; each joiner task owns its
// indexes exclusively, matching the shared-nothing model.
type Index interface {
	// Insert stores a tuple.
	Insert(t Tuple)
	// InsertBatch stores every tuple of ts; equivalent to inserting
	// them in order, with per-call overhead amortized over the batch.
	InsertBatch(ts []Tuple)
	// Probe calls fn for every stored tuple that structurally matches
	// the probe tuple under the predicate the index was built for.
	// Residual filtering is the caller's job.
	Probe(probe Tuple, fn func(stored Tuple))
	// ProbeBatchCollect probes every tuple of ps (all of relation rel)
	// in order and appends each predicate-passing match to *out as an
	// oriented Pair: the vectorized form of Probe — one call per run
	// instead of one per tuple, so hash computation and bounds checks
	// amortize — and the emit-plane half of the batch story: no
	// per-match callback at all; matches accumulate in the caller's
	// pair buffer and flush (accounting, user sink) once per run.
	ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair)
	// Reserve hints that the index will eventually hold about n tuples,
	// letting it presize its directory and arena so steady ingest up to
	// the hint neither rehashes nor allocates. Reserving less than the
	// current size, or zero, is a no-op; overshooting costs bounded
	// memory (the hint is clamped internally).
	Reserve(n int)
	// Len returns the number of stored tuples.
	Len() int
	// Bytes returns the accounted storage volume of stored tuples.
	Bytes() int64
	// Scan calls fn for every stored tuple, in unspecified order,
	// until fn returns false. Used by migration to enumerate state.
	Scan(fn func(Tuple) bool)
	// Retain keeps only tuples for which keep returns true, returning
	// the number removed. Used by migration discards.
	Retain(keep func(Tuple) bool) int
}

// collectPair appends probe⋈stored to *out when the pair passes the
// predicate, orienting the Pair by the probe's relation. ScanIndex
// tests every stored tuple this way; the hash and ordered indexes
// instead gather bounded hit lists and build pairs in
// tupleArena.materialize, since a full scan per probe has no bounded
// hit list to gather.
func collectPair(probe, stored Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	if rel == matrix.SideR {
		if p.Matches(probe, stored) {
			*out = append(*out, Pair{R: probe, S: stored})
		}
	} else {
		if p.Matches(stored, probe) {
			*out = append(*out, Pair{R: stored, S: probe})
		}
	}
}

// NewIndex returns the appropriate index implementation for a
// predicate: hash for equi, ordered (B-tree) for band, scan for theta.
func NewIndex(p Predicate) Index {
	switch p.Kind {
	case Equi:
		return NewHashIndex()
	case Band:
		return NewOrderedIndex(p.Width)
	default:
		return NewScanIndex()
	}
}

// inlineOffsets is the number of arena offsets stored directly in a
// hash slot. Three offsets keep the slot at 32 bytes (two per cache
// line), so a probe of a key with up to three duplicates touches only
// the slot it lands on — no pointer chase at all.
const inlineOffsets = 3

// hslot is one open-addressing slot: the key, the per-key tuple count,
// the first inlineOffsets arena offsets inline, and the id of a spill
// list holding the overflow. n == 0 marks an empty slot (a stored key
// always has at least one offset).
type hslot struct {
	key    int64
	n      uint32
	spill  int32 // index into HashIndex.spill; -1 when inline only
	inline [inlineOffsets]int32
}

// HashIndex is a multimap from join key to tuples, the storage half of
// a symmetric hash join [42]. Tuples live in the columnar arena; the
// key directory is an open-addressed (linear probing) table of 32-byte
// slots with small inline bucket storage, overflowing into a shared
// spill arena. The common probe — a key with at most three duplicates
// — reads one slot and the arena, with no map iteration machinery and
// no per-bucket pointer chase.
//
// Directory growth is incremental: instead of re-placing every
// occupied slot at the moment the load threshold trips (a
// stop-the-world pause proportional to the directory), growth installs
// a fresh directory and keeps the old one frozen, migrating a bounded
// run of old slots on every subsequent insert until the old directory
// drains. A key therefore lives in exactly one of the two directories:
// lookups check the new one first and fall back to the old; inserts of
// a key still resident in the old directory append to it in place (the
// whole slot migrates later), while new keys always enter the new
// directory. Reserve short-circuits the whole dance by presizing the
// directory to an expected cardinality up front.
type HashIndex struct {
	slots []hslot
	mask  uint64
	used  int // occupied slots (distinct keys), across both directories
	// old is the draining directory of an in-flight incremental rehash
	// (nil otherwise); slots [0, migPos) have been re-placed into the
	// new directory, the rest still serve lookups.
	old     []hslot
	oldMask uint64
	migPos  int
	// spill holds per-key overflow offset lists, indexed by hslot.spill.
	// Only keys with more than inlineOffsets duplicates allocate one.
	spill [][]int32
	arena tupleArena
	bytes int64
	hits  []probeHit // batch-probe gather scratch
}

// NewHashIndex returns an empty hash index.
func NewHashIndex() *HashIndex { return &HashIndex{} }

// hashKey mixes the key bits (splitmix64 finalizer) so linear probing
// works on adversarial key sets, e.g. sequential keys.
func hashKey(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// minSlots is the initial directory size.
const minSlots = 16

// rehashStep is how many old-directory slots each insert migrates
// while a rehash is draining. The step picks the bounded-latency point
// in a three-way trade: total migration work is len(old) slots
// regardless, but while the drain lasts every lookup miss probes both
// directories, so a larger step shortens that double-probe window; in
// the other direction the step bounds the per-insert pause (64 slots
// is a 2 KB scan). The new directory holds at least twice the old one,
// so the next growth cannot trip before len(old)/0.25 further
// distinct-key inserts — draining at rehashStep slots per insert
// finishes two orders of magnitude earlier, and growTo's forced drain
// is only a safety valve.
const rehashStep = 64

// growTo installs a directory of newCap slots (a power of two) and
// starts the incremental migration of the current one. The rare caller
// that grows while a previous rehash is still draining (an extreme
// Reserve, or adversarial duplicate-free ingest) pays a forced drain
// first, preserving the two-directory invariant.
func (h *HashIndex) growTo(newCap int) {
	if newCap < minSlots {
		newCap = minSlots
	}
	if h.old != nil {
		h.migrate(len(h.old))
	}
	if h.used == 0 {
		h.slots = make([]hslot, newCap)
		h.mask = uint64(newCap - 1)
		return
	}
	h.old, h.oldMask, h.migPos = h.slots, h.mask, 0
	h.slots = make([]hslot, newCap)
	h.mask = uint64(newCap - 1)
}

// migrate re-places up to k slots of the draining old directory into
// the new one, retiring the old directory once fully scanned. Only
// 32-byte slots move; spill lists are carried by id and tuples never
// relocate.
func (h *HashIndex) migrate(k int) {
	end := h.migPos + k
	if end > len(h.old) {
		end = len(h.old)
	}
	for i := h.migPos; i < end; i++ {
		if h.old[i].n != 0 {
			// The key cannot already be in the new directory (a key
			// lives in exactly one), so this is a pure placement walk.
			j := hashKey(h.old[i].key) & h.mask
			for h.slots[j].n != 0 {
				j = (j + 1) & h.mask
			}
			h.slots[j] = h.old[i]
		}
	}
	h.migPos = end
	if h.migPos >= len(h.old) {
		h.old, h.oldMask, h.migPos = nil, 0, 0
	}
}

// rehashing reports whether an incremental rehash is mid-drain
// (exposed for the property tests, which pin Scan/Retain/MergeFrom
// behavior at exactly this state).
func (h *HashIndex) rehashing() bool { return h.old != nil }

// appendOffset adds one more arena offset to an occupied slot,
// spilling past the inline capacity into the shared overflow arena.
func (h *HashIndex) appendOffset(s *hslot, off int32) {
	switch {
	case s.n < inlineOffsets:
		s.inline[s.n] = off
	case s.spill < 0:
		s.spill = int32(len(h.spill))
		h.spill = append(h.spill, []int32{off})
	default:
		h.spill[s.spill] = append(h.spill[s.spill], off)
	}
	s.n++
}

// oldFind returns the slot holding key in the draining directory, or
// nil. The old directory is frozen (no new keys), so its probe chains
// stay intact throughout the drain.
func (h *HashIndex) oldFind(hash uint64, key int64) *hslot {
	i := hash & h.oldMask
	for {
		s := &h.old[i]
		if s.n == 0 {
			return nil
		}
		if s.key == key {
			return s
		}
		i = (i + 1) & h.oldMask
	}
}

// findSlot returns the slot holding key — new directory first, then
// the draining old one — or nil.
func (h *HashIndex) findSlot(hash uint64, key int64) *hslot {
	if h.used == 0 {
		return nil
	}
	i := hash & h.mask
	for {
		s := &h.slots[i]
		if s.n == 0 {
			break
		}
		if s.key == key {
			return s
		}
		i = (i + 1) & h.mask
	}
	if h.old != nil {
		return h.oldFind(hash, key)
	}
	return nil
}

// insertOffset records key -> off in the slot directory, reusing the
// caller's hash (probe-then-insert steps hash each key exactly once).
func (h *HashIndex) insertOffset(hash uint64, key int64, off int32) {
	// Grow on distinct-key load: 3/4 of the directory. used counts keys
	// across both directories — exactly the population the new
	// directory must hold once the drain completes.
	if h.used >= len(h.slots)-len(h.slots)/4 {
		h.growTo(2 * len(h.slots))
	}
	if h.old != nil {
		h.migrate(rehashStep)
	}
	i := hash & h.mask
	for {
		s := &h.slots[i]
		if s.n == 0 {
			if h.old != nil {
				// Not in the new directory; the key may still be
				// resident in the draining one — append there in place,
				// the whole slot migrates later.
				if os := h.oldFind(hash, key); os != nil {
					h.appendOffset(os, off)
					return
				}
			}
			s.key = key
			s.n = 1
			s.spill = -1
			s.inline[0] = off
			h.used++
			return
		}
		if s.key == key {
			h.appendOffset(s, off)
			return
		}
		i = (i + 1) & h.mask
	}
}

// Insert stores t under its key.
func (h *HashIndex) Insert(t Tuple) {
	off := h.arena.append(&t)
	h.insertOffset(hashKey(t.Key), t.Key, off)
	h.bytes += t.Bytes()
}

// InsertBatch stores every tuple of ts.
func (h *HashIndex) InsertBatch(ts []Tuple) {
	var bytes int64
	for i := range ts {
		off := h.arena.append(&ts[i])
		h.insertOffset(hashKey(ts[i].Key), ts[i].Key, off)
		bytes += ts[i].Bytes()
	}
	h.bytes += bytes
}

// Reserve presizes the directory and arena for about n stored tuples
// (assuming distinct keys — a safe overestimate for the directory).
// Ingest below the hint then neither rehashes nor allocates; the hint
// is clamped so a wild estimate costs bounded memory.
func (h *HashIndex) Reserve(n int) {
	if n <= 0 {
		return
	}
	if n > maxReserve {
		n = maxReserve
	}
	// The hint counts tuples; the directory holds distinct keys. Scale
	// by the observed distinct fraction once enough tuples have arrived
	// to trust it — presizing a duplicate-heavy index for one key per
	// tuple would spread a few hot slots over a mostly-empty directory,
	// wasting memory and cache reach.
	keys := n
	if h.arena.n >= 1024 {
		keys = int(int64(n) * int64(h.used) / int64(h.arena.n))
	}
	h.reserveSlots(keys)
	h.arena.reserve(n)
}

// reserveSlots presizes only the directory, for n distinct keys under
// the 3/4 load threshold.
func (h *HashIndex) reserveSlots(n int) {
	target := minSlots
	for target-target/4 < n {
		target <<= 1
	}
	if target > len(h.slots) {
		h.growTo(target)
	}
}

// gather appends a slot's arena offsets to hits, tagged with the probe
// index that matched the slot and the stored tuple's meta word (see
// probeHit for why the gather pass reads the arena early).
func (h *HashIndex) gather(s *hslot, probe int32, hits []probeHit) []probeHit {
	in := int(s.n)
	if in > inlineOffsets {
		in = inlineOffsets
	}
	for k := 0; k < in; k++ {
		off := s.inline[k]
		hits = append(hits, probeHit{probe: probe, off: off, meta: h.arena.metaAt(off)})
	}
	if s.spill >= 0 {
		for _, off := range h.spill[s.spill] {
			hits = append(hits, probeHit{probe: probe, off: off, meta: h.arena.metaAt(off)})
		}
	}
	return hits
}

// Probe enumerates stored tuples with key equal to the probe's key, in
// per-key insertion order.
func (h *HashIndex) Probe(probe Tuple, fn func(Tuple)) {
	s := h.findSlot(hashKey(probe.Key), probe.Key)
	if s == nil {
		return
	}
	in := int(s.n)
	if in > inlineOffsets {
		in = inlineOffsets
	}
	for k := 0; k < in; k++ {
		fn(h.arena.at(s.inline[k]))
	}
	if s.spill >= 0 {
		for _, off := range h.spill[s.spill] {
			fn(h.arena.at(off))
		}
	}
}

// probeStride is the batch-probe vector width: hashes and first-slot
// touches proceed eight probes at a time, so the eight directory cache
// lines are in flight concurrently (memory-level parallelism) instead
// of each probe's load stalling the next probe's hash.
const probeStride = 8

// walkFrom resolves a probe whose first directory slot neither decided
// a hit nor ended the chain: continue the linear-probe walk from slot
// i, falling back to the draining old directory on an empty slot. The
// vectorized gather loop inlines the first-slot comparison (the common
// case for a well-loaded directory) and calls here only for collided
// chains.
func (h *HashIndex) walkFrom(i, hash uint64, key int64) *hslot {
	for {
		s := &h.slots[i]
		if s.n == 0 {
			break
		}
		if s.key == key {
			return s
		}
		i = (i + 1) & h.mask
	}
	if h.old != nil {
		return h.oldFind(hash, key)
	}
	return nil
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out. The run is processed in
// two phases: a gather loop that walks only the slot directory,
// collecting (probe, arena offset) hits, then a materialize loop that
// reads the arena columns and builds pairs — so directory cache lines
// and tuple columns each stream through once instead of alternating
// per match.
//
// The gather loop is vectorized at probeStride: one pass hashes eight
// keys back to back (pure ALU, no memory dependence), the next touches
// the eight first slots — eight independent loads the core overlaps —
// and only then does each probe resolve: empty slot means a miss (or
// an old-directory fallback mid-rehash), a key match on the first slot
// gathers immediately, and a collision walks the chain via walkFrom. A
// scalar tail covers the last len(ps) mod probeStride probes.
func (h *HashIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	if h.used == 0 {
		return
	}
	hits := h.hits[:0]
	var (
		hv     [probeStride]uint64
		first  [probeStride]*hslot
		firstN [probeStride]uint32
	)
	i := 0
	for ; i+probeStride <= len(ps); i += probeStride {
		for k := 0; k < probeStride; k++ {
			hv[k] = hashKey(ps[i+k].Key)
		}
		for k := 0; k < probeStride; k++ {
			s := &h.slots[hv[k]&h.mask]
			first[k] = s
			firstN[k] = s.n
		}
		for k := 0; k < probeStride; k++ {
			key := ps[i+k].Key
			s := first[k]
			switch {
			case firstN[k] == 0:
				s = nil
				if h.old != nil {
					s = h.oldFind(hv[k], key)
				}
			case s.key != key:
				s = h.walkFrom((hv[k]+1)&h.mask, hv[k], key)
			}
			if s != nil {
				hits = h.gather(s, int32(i+k), hits)
			}
		}
	}
	for ; i < len(ps); i++ {
		if s := h.findSlot(hashKey(ps[i].Key), ps[i].Key); s != nil {
			hits = h.gather(s, int32(i), hits)
		}
	}
	h.collect(ps, hits, rel, p, out)
}

// collect materializes a run's gathered hits into *out and retires the
// gather scratch. The directory guarantees equal keys, so a
// residual-free equi predicate leaves only the dummy flags to check.
func (h *HashIndex) collect(ps []Tuple, hits []probeHit, rel matrix.Side, p Predicate, out *[]Pair) {
	h.arena.materialize(ps, hits, rel, p, p.Kind == Equi && p.Residual == nil, out)
	h.hits = recycleHits(hits)
}

// Len returns the number of stored tuples.
func (h *HashIndex) Len() int { return h.arena.n }

// Bytes returns the accounted stored volume.
func (h *HashIndex) Bytes() int64 { return h.bytes }

// Scan visits all stored tuples.
func (h *HashIndex) Scan(fn func(Tuple) bool) { h.arena.scan(fn) }

// Retain drops tuples failing keep, compacting the arena and
// rebuilding the slot directory. Migration discards touch on the
// order of half the state, so the O(n) rebuild matches the old
// per-bucket sweep; the rebuild is presized to the surviving count so
// it performs no incremental growth of its own.
func (h *HashIndex) Retain(keep func(Tuple) bool) int {
	removed := 0
	h.Scan(func(t Tuple) bool {
		if !keep(t) {
			removed++
		}
		return true
	})
	if removed == 0 {
		return 0 // common for the non-splitting relation: no rebuild
	}
	fresh := NewHashIndex()
	// Presize from what the rebuild will actually hold: the surviving
	// tuple count for the arena, and at most the current distinct-key
	// count for the directory (Reserve's own distinct-fraction scaling
	// cannot help here — fresh is empty).
	kept := h.Len() - removed
	keys := h.used
	if keys > kept {
		keys = kept
	}
	if keys > maxReserve {
		keys = maxReserve
	}
	fresh.reserveSlots(keys)
	fresh.arena.reserve(kept)
	h.Scan(func(t Tuple) bool {
		if keep(t) {
			fresh.Insert(t)
		}
		return true
	})
	// The rebuild relocated every survivor: invalidate block-prefix
	// watermarks taken against the old arena.
	fresh.arena.mutGen = h.arena.mutGen + 1
	*h = *fresh
	return removed
}

// MergeFrom bulk-merges every tuple of o into h, consuming o (o must
// not be used afterward). The source arena blocks are adopted
// wholesale — no tuple is copied, only the 32-byte directory entries
// are built, and only the key column of the adopted blocks is read —
// which is what makes migration finalization a directory rebuild
// instead of a full re-insert. The (chunk,pos) offset encoding is what
// makes adoption unconditional: a partially filled block is
// addressable anywhere in the chunk list, so neither arena needs to
// end on a block boundary, and either index may even be mid-rehash (h
// keeps draining incrementally; o's directories are simply dropped).
func (h *HashIndex) MergeFrom(o *HashIndex) {
	if o.arena.n == 0 {
		*o = HashIndex{}
		return
	}
	// Presize the directory (not the arena — its blocks arrive by
	// adoption) so the offset rebuild below rarely grows mid-loop.
	if n := h.used + o.used; n <= maxReserve {
		h.reserveSlots(n)
	}
	base := h.arena.adopt(&o.arena)
	adopted := h.arena.chunks[base:]
	for ci, c := range adopted {
		for pos := 0; pos < c.n; pos++ {
			key := c.key[pos]
			h.insertOffset(hashKey(key), key, int32((base+ci)<<arenaShift|pos))
		}
	}
	h.bytes += o.bytes
	*o = HashIndex{}
}

// ScanIndex stores tuples in arrival order and matches every stored
// tuple on probe: the storage half of a nested-loop theta join. Joiners
// fall back to it for arbitrary predicates, where no index structure
// can restrict candidates.
type ScanIndex struct {
	arena tupleArena
	bytes int64
}

// NewScanIndex returns an empty scan index.
func NewScanIndex() *ScanIndex { return &ScanIndex{} }

// Insert appends t.
func (s *ScanIndex) Insert(t Tuple) {
	s.arena.append(&t)
	s.bytes += t.Bytes()
}

// InsertBatch appends every tuple of ts.
func (s *ScanIndex) InsertBatch(ts []Tuple) {
	for i := range ts {
		s.arena.append(&ts[i])
		s.bytes += ts[i].Bytes()
	}
}

// Reserve preallocates arena blocks for about n stored tuples.
func (s *ScanIndex) Reserve(n int) { s.arena.reserve(n) }

// Probe enumerates every stored tuple: all are structural candidates
// under a theta predicate.
func (s *ScanIndex) Probe(_ Tuple, fn func(Tuple)) {
	s.arena.scan(func(t Tuple) bool { fn(t); return true })
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out: a plain nested loop over
// the arena blocks with no per-match callback.
func (s *ScanIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	for i := range ps {
		for _, c := range s.arena.chunks {
			for pos := int32(0); pos < int32(c.n); pos++ {
				collectPair(ps[i], c.at(pos), rel, p, out)
			}
		}
	}
}

// Len returns the number of stored tuples.
func (s *ScanIndex) Len() int { return s.arena.n }

// Bytes returns the accounted stored volume.
func (s *ScanIndex) Bytes() int64 { return s.bytes }

// Scan visits all stored tuples in insertion order.
func (s *ScanIndex) Scan(fn func(Tuple) bool) { s.arena.scan(fn) }

// Retain drops tuples failing keep, rebuilding the arena compactly.
// A counting pass runs first so the common nothing-removed case (the
// non-splitting relation of a migration) costs no allocation.
func (s *ScanIndex) Retain(keep func(Tuple) bool) int {
	removed := 0
	s.arena.scan(func(t Tuple) bool {
		if !keep(t) {
			removed++
		}
		return true
	})
	if removed == 0 {
		return 0
	}
	var fresh tupleArena
	fresh.reserve(s.arena.n - removed)
	var bytes int64
	s.arena.scan(func(t Tuple) bool {
		if keep(t) {
			fresh.append(&t)
			bytes += t.Bytes()
		}
		return true
	})
	// The rebuild relocated every survivor: invalidate block-prefix
	// watermarks taken against the old arena.
	fresh.mutGen = s.arena.mutGen + 1
	s.arena = fresh
	s.bytes = bytes
	return removed
}

// MergeFrom bulk-merges every tuple of o into s by adopting its arena
// blocks, consuming o. Insertion order is preserved: o's tuples follow
// s's, exactly as a scan-and-insert merge would order them.
func (s *ScanIndex) MergeFrom(o *ScanIndex) {
	if o.arena.n == 0 {
		*o = ScanIndex{}
		return
	}
	s.arena.adopt(&o.arena)
	s.bytes += o.bytes
	*o = ScanIndex{}
}
