package main

import (
	"time"

	squall "repro"
)

// shardAcc is one sink shard's tally, call count and latency samples. Calls within a shard are serialized by the Sharded
// sink contract; the padding keeps neighbouring shards off each
// other's cache line.
type shardAcc struct {
	t     tally
	calls int64
	lat   []int64
	_     [64]byte
}

// maxShards bounds sink shard ids: the workloads run J joiners with no
// elastic expansion, so shard ids stay below J.
const maxShards = 64

// collector is the benchmark's sink. It tallies every pair against the
// oracle checksum and samples the latency of a fixed pair-determined
// subset.
type collector struct {
	shards [maxShards]shardAcc
	base   time.Time
	// mask selects the sampled pairs: those whose hash has these bits
	// clear.
	mask uint64
	// dueNs returns when the newer tuple of a pair was due, in ns since
	// base, or -1 to take no sample.
	dueNs func(newer int64) int64
}

func newCollector(base time.Time, mask uint64, dueNs func(int64) int64) *collector {
	return &collector{base: base, mask: mask, dueNs: dueNs}
}

func (c *collector) sink() squall.Sink { return squall.Sharded(c.emit) }

func (c *collector) emit(shard int, ps []squall.Pair) {
	if shard >= maxShards {
		panic("perfbench: sink shard id beyond maxShards")
	}
	a := &c.shards[shard]
	a.calls++
	now := int64(time.Since(c.base))
	for i := range ps {
		r, s := ps[i].R.Aux, ps[i].S.Aux
		h := pairHash(r, s)
		a.t.count++
		a.t.sum += h
		if h&c.mask == 0 {
			newer := max(r, s)
			if due := c.dueNs(newer); due >= 0 {
				a.lat = append(a.lat, now-due)
			}
		}
	}
}

// total sums every shard's tally.
func (c *collector) total() tally {
	var t tally
	for i := range c.shards {
		t.add(c.shards[i].t)
	}
	return t
}

// calls returns the number of sink invocations.
func (c *collector) calls() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].calls
	}
	return n
}

// latencies appends every shard's samples to dst.
func (c *collector) latencies(dst []int64) []int64 {
	for i := range c.shards {
		dst = append(dst, c.shards[i].lat...)
	}
	return dst
}
