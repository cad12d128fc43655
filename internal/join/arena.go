package join

import "repro/internal/matrix"

// The columnar tuple arena: the storage plane every index stores its
// tuples in. Tuples are decomposed into parallel fixed-size column
// blocks — Key, Aux, U, Seq, a packed meta word (Rel/Dummy/Size), and
// an out-of-line payload column — instead of an array of 72-byte
// Tuple structs. The layout buys three things on the hot path:
//
//   - inserts append only the hot scalar columns (40 bytes across five
//     dense arrays, no payload slice header unless a payload exists),
//   - the blocks are pointer-free unless a payload-carrying tuple
//     forces the payload column into existence, so the garbage
//     collector skips stored state instead of scanning a slice header
//     per tuple, and
//   - batch probes can gather match offsets from the index first and
//     materialize result pairs in a tight second loop, rather than
//     interleaving directory or tree walks with full-tuple copies.
//     Both the hash and the ordered index gather into probeHit
//     scratch and hand it to the one materializer below.
//
// Growth appends a fresh block — stored tuples are never relocated —
// and an arena offset encodes its block and position explicitly
// (off = chunk<<arenaShift | pos) rather than as a global index, so a
// block may sit anywhere in the chunk list while partially filled.
// That is what lets adopt() splice another arena's blocks in wholesale
// at migration finalization, whatever fill level either arena ends at.

// arenaChunk sizes the arena's fixed blocks.
const (
	arenaChunk = 512
	arenaShift = 9 // log2(arenaChunk)
)

// maxReserve caps how many tuples a single Reserve hint may
// preallocate for, bounding what a wild cardinality estimate can
// balloon a joiner by: at the cap, ~21 MB of arena blocks plus, for a
// mostly-distinct key set, a 2^20-slot directory (~34 MB) per side.
// Beyond the cap the index simply resumes incremental growth.
const maxReserve = 1 << 19

// colChunk is one block of the arena: arenaChunk tuples decomposed
// into parallel columns. n is the fill level; slots at positions
// >= n are unwritten. The payload column is allocated lazily, on the
// first payload-carrying tuple appended to the block — payload-free
// workloads keep the block a single pointer-free allocation.
type colChunk struct {
	key     [arenaChunk]int64
	aux     [arenaChunk]int64
	u       [arenaChunk]uint64
	seq     [arenaChunk]uint64
	meta    [arenaChunk]uint64
	payload [][]byte
	n       int
}

// atInto materializes the tuple stored at pos directly into *dst,
// overwriting every field: the single column-unpack in the codebase
// (the inverse of the per-column writes in tupleArena.append; the meta
// word layout is defined by Tuple.metaWord).
func (c *colChunk) atInto(pos int32, dst *Tuple) {
	c.atIntoMeta(pos, c.meta[pos], dst)
}

// atIntoMeta is atInto with the meta word supplied by the caller — the
// batch probe captures it during the gather pass (an early touch of the
// block that overlaps with the remaining directory walk), so
// materialization skips the meta column read.
func (c *colChunk) atIntoMeta(pos int32, m uint64, dst *Tuple) {
	dst.Rel = matrix.Side(m >> 32 & 1)
	dst.Key = c.key[pos]
	dst.Aux = c.aux[pos]
	dst.Size = int32(uint32(m))
	dst.U = c.u[pos]
	dst.Seq = c.seq[pos]
	dst.Dummy = metaDummy(m)
	if c.payload != nil {
		dst.Payload = c.payload[pos]
	} else {
		dst.Payload = nil
	}
}

// at materializes the tuple stored at pos.
func (c *colChunk) at(pos int32) Tuple {
	var t Tuple
	c.atInto(pos, &t)
	return t
}

// tupleArena is a chunked columnar tuple store. The zero value is an
// empty arena.
type tupleArena struct {
	chunks []*colChunk
	// tail indexes the chunk receiving appends. Chunks before it may be
	// partially filled (an adopted arena's former tail); chunks after it
	// are reserved capacity, empty until appends reach them.
	tail int
	n    int
	// mutGen counts destructive rebuilds (Retain, Drain). Appends and
	// adoptions leave it alone: they only extend the chunk list, so a
	// block-prefix watermark taken before them still names the same
	// bytes. A rebuild invalidates every outstanding watermark, which
	// the incremental-checkpoint plane detects by comparing mutGen.
	mutGen uint64
}

// immutablePrefix returns how many leading chunks are frozen: every
// chunk before tail (full, or a partial adopted tail that will never
// grow), plus the tail itself once it fills. Chunks inside the prefix
// never change again unless mutGen moves, so a delta snapshot may ship
// only chunks at indexes >= a previously recorded prefix.
func (a *tupleArena) immutablePrefix() int {
	p := a.tail
	if p < len(a.chunks) && a.chunks[p].n == arenaChunk {
		p++
	}
	return p
}

// grab returns the chunk (and its index) the next append lands in,
// advancing past filled blocks into reserved ones and allocating a
// fresh block only when no capacity is left.
func (a *tupleArena) grab() (*colChunk, int) {
	for a.tail < len(a.chunks) {
		if c := a.chunks[a.tail]; c.n < arenaChunk {
			return c, a.tail
		}
		a.tail++
	}
	c := &colChunk{}
	a.chunks = append(a.chunks, c)
	a.tail = len(a.chunks) - 1
	return c, a.tail
}

// append stores t and returns its offset; t is taken by pointer so
// the call moves five machine words into the columns instead of
// copying the 72-byte struct twice. Arena offsets are int32: a single
// joiner index holding >2^31 tuples would exhaust memory long before
// the offset space.
func (a *tupleArena) append(t *Tuple) int32 {
	c, ci := a.grab()
	pos := c.n
	c.key[pos] = t.Key
	c.aux[pos] = t.Aux
	c.u[pos] = t.U
	c.seq[pos] = t.Seq
	c.meta[pos] = t.metaWord()
	if t.Payload != nil {
		if c.payload == nil {
			c.payload = make([][]byte, arenaChunk)
		}
		c.payload[pos] = t.Payload
	}
	c.n++
	a.n++
	return int32(ci<<arenaShift | pos)
}

// at materializes the tuple at offset off.
func (a *tupleArena) at(off int32) Tuple {
	return a.chunks[off>>arenaShift].at(off & (arenaChunk - 1))
}

// metaAt reads only the packed meta word at offset off. The batch
// probe's gather loop uses it to touch each hit's arena block while the
// directory walk is still in flight, and feeds the captured word to
// atIntoMeta so materialization re-reads one column fewer.
func (a *tupleArena) metaAt(off int32) uint64 {
	return a.chunks[off>>arenaShift].meta[off&(arenaChunk-1)]
}

// atInto materializes the tuple at offset off directly into *dst,
// overwriting every field — the copy-free form of at for hot loops
// that gather into a caller-owned slot (e.g. a Pair being built in the
// output buffer).
func (a *tupleArena) atInto(off int32, dst *Tuple) {
	a.chunks[off>>arenaShift].atInto(off&(arenaChunk-1), dst)
}

// atIntoMeta materializes the tuple at offset off using a meta word the
// caller already read via metaAt.
func (a *tupleArena) atIntoMeta(off int32, m uint64, dst *Tuple) {
	a.chunks[off>>arenaShift].atIntoMeta(off&(arenaChunk-1), m, dst)
}

// scan visits every stored tuple in block order until fn returns
// false, reporting whether the scan ran to completion.
func (a *tupleArena) scan(fn func(Tuple) bool) bool {
	for _, c := range a.chunks {
		for pos := int32(0); pos < int32(c.n); pos++ {
			if !fn(c.at(pos)) {
				return false
			}
		}
	}
	return true
}

// reserve preallocates blocks so the arena can hold n tuples in total
// without further allocation. The hint is clamped to maxReserve; a
// reserve never shrinks the arena.
func (a *tupleArena) reserve(n int) {
	if n > maxReserve {
		n = maxReserve
	}
	// Capacity still ahead of the append cursor; blocks before tail may
	// be partially filled forever (adopted tails) and do not count.
	avail := (len(a.chunks) - a.tail) * arenaChunk
	if a.tail < len(a.chunks) {
		avail -= a.chunks[a.tail].n
	}
	for need := n - a.n - avail; need > 0; need -= arenaChunk {
		a.chunks = append(a.chunks, &colChunk{})
	}
}

// trim drops reserved-but-empty trailing blocks, releasing unused
// reserve capacity ahead of an adoption so it does not end up buried
// mid-list where appends can never reach it.
func (a *tupleArena) trim() {
	for len(a.chunks) > 0 && a.chunks[len(a.chunks)-1].n == 0 {
		a.chunks = a.chunks[:len(a.chunks)-1]
	}
	if a.tail > len(a.chunks) {
		a.tail = len(a.chunks)
	}
}

// adopt splices every block of o onto a, consuming o, and returns the
// index a's chunk list gained o's blocks at: offset ci<<arenaShift|pos
// in o becomes (base+ci)<<arenaShift|pos in a. No tuple is copied —
// adoption is what makes migration finalization a directory rebuild
// instead of a second ingest. a's previous tail block simply stays
// partial; only o's tail keeps receiving appends.
func (a *tupleArena) adopt(o *tupleArena) int {
	a.trim()
	o.trim()
	base := len(a.chunks)
	a.chunks = append(a.chunks, o.chunks...)
	a.tail = base + o.tail
	a.n += o.n
	*o = tupleArena{}
	return base
}

// probeHit is one gathered batch-probe candidate: which probe tuple of
// the run hit, the arena offset of the stored tuple it hit, and the
// stored tuple's packed meta word. An index's gather pass (the hash
// directory walk, or the B-tree range walk) produces these;
// tupleArena.materialize consumes them in a tight second loop.
// Capturing meta during gather touches the hit's block early: the load
// pulls it into cache while later probes are still walking the index,
// so materialization's column reads overlap with the gather instead of
// serializing behind it — and the captured word lets materialize
// reject dummy hits before touching the arena at all.
type probeHit struct {
	probe int32
	off   int32
	meta  uint64
}

// maxHitsCap bounds the gathered-hit scratch capacity an index retains
// between batch probes, so one high-fanout run does not become a
// permanent memory tax.
const maxHitsCap = 1 << 15

// recycleHits returns hits emptied for the next batch probe, dropping
// it instead when a high-fanout run grew it past maxHitsCap.
func recycleHits(hits []probeHit) []probeHit {
	if cap(hits) > maxHitsCap {
		return nil
	}
	return hits[:0]
}

// materialize turns gathered hits into oriented pairs appended to *out:
// the second phase of every indexed batch probe. Hits arrive grouped
// by probe (gather appends one probe's hits contiguously), so the probe
// tuple loads once per group, not per hit. Each candidate is
// materialized straight into its output Pair slot (truncated again if
// the predicate rejects it) instead of passing 72-byte tuples through
// an intermediate copy chain.
//
// Dummy padding tuples never match, so dummy probes and dummy hits
// (known from the meta word captured at gather time) are skipped
// without reading the arena. exact reports that the index already
// guarantees the whole predicate apart from the dummy flags — the hash
// directory's equal keys, or the B-tree's band walk, with no Residual
// — so Matches is skipped too.
func (a *tupleArena) materialize(ps []Tuple, hits []probeHit, rel matrix.Side, p Predicate, exact bool, out *[]Pair) {
	buf := *out
	for i := 0; i < len(hits); {
		pi := hits[i].probe
		j := i + 1
		for j < len(hits) && hits[j].probe == pi {
			j++
		}
		probe := &ps[pi]
		if probe.Dummy {
			i = j
			continue
		}
		for k := i; k < j; k++ {
			if metaDummy(hits[k].meta) {
				continue
			}
			n := len(buf)
			if n < cap(buf) {
				buf = buf[:n+1] // stale contents are fully overwritten
			} else {
				buf = append(buf, Pair{})
			}
			pr := &buf[n]
			var stored *Tuple
			if rel == matrix.SideR {
				pr.R = *probe
				stored = &pr.S
			} else {
				pr.S = *probe
				stored = &pr.R
			}
			a.atIntoMeta(hits[k].off, hits[k].meta, stored)
			if !exact && !p.Matches(pr.R, pr.S) {
				buf = buf[:n]
			}
		}
		i = j
	}
	*out = buf
}
