package main

import (
	"fmt"
	"math/rand"
	"sort"

	squall "repro"
)

// pairHash identifies one result pair by the stream indexes of its two
// members (carried in Tuple.Aux). Summing it over a pair multiset gives
// an order-independent checksum that changes when a pair is dropped,
// duplicated or replaced.
func pairHash(r, s int64) uint64 {
	x := uint64(r)<<32 | uint64(uint32(s))
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tally is a pair multiset summarized by count and checksum.
type tally struct {
	count int64
	sum   uint64
}

func (t *tally) add(o tally) {
	t.count += o.count
	t.sum += o.sum
}

// pairErrors compares a delivered multiset with the oracle's: the
// count difference is the number of missing plus extra pairs seen, and
// a checksum mismatch at equal counts is at least one error.
func pairErrors(got, want tally) int64 {
	d := got.count - want.count
	if d < 0 {
		d = -d
	}
	if d == 0 && got.sum != want.sum {
		d = 1
	}
	return d
}

// expected computes the oracle tally of pred over the input without
// running the operator: a hash index on R for equi joins and a sorted
// R with a ±width window for band joins, probed by every S tuple.
func expected(pred squall.Predicate, tuples []squall.Tuple) tally {
	var out tally
	emit := func(r, s int64) {
		out.count++
		out.sum += pairHash(r, s)
	}
	switch pred.Kind {
	case squall.KindEqui:
		byKey := make(map[int64][]int64)
		for _, t := range tuples {
			if t.Rel == squall.SideR {
				byKey[t.Key] = append(byKey[t.Key], t.Aux)
			}
		}
		for _, t := range tuples {
			if t.Rel != squall.SideS {
				continue
			}
			for _, r := range byKey[t.Key] {
				emit(r, t.Aux)
			}
		}
	case squall.KindBand:
		var rs []squall.Tuple
		for _, t := range tuples {
			if t.Rel == squall.SideR {
				rs = append(rs, t)
			}
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Key < rs[j].Key })
		for _, t := range tuples {
			if t.Rel != squall.SideS {
				continue
			}
			lo := sort.Search(len(rs), func(i int) bool { return rs[i].Key >= t.Key-pred.Width })
			for i := lo; i < len(rs) && rs[i].Key <= t.Key+pred.Width; i++ {
				emit(rs[i].Aux, t.Aux)
			}
		}
	default:
		panic(fmt.Sprintf("perfbench: no oracle for predicate kind %v", pred.Kind))
	}
	return out
}

// selfTest shows that the oracle and the checker catch the errors the
// benchmark exists to catch: on a small random input it checks the
// oracle against a nested loop, then checks that a dropped, a
// duplicated and a replaced pair each count as an error.
func selfTest() error {
	rng := rand.New(rand.NewSource(7))
	for _, pred := range []squall.Predicate{squall.Equi("selftest-eq"), squall.Band("selftest-band", 2)} {
		tuples := make([]squall.Tuple, 400)
		for i := range tuples {
			tuples[i] = squall.Tuple{Rel: squall.Side(rng.Intn(2)), Key: rng.Int63n(40), Aux: int64(i)}
		}
		var pairs [][2]int64
		for _, r := range tuples {
			for _, s := range tuples {
				if r.Rel == squall.SideR && s.Rel == squall.SideS && pred.Matches(r, s) {
					pairs = append(pairs, [2]int64{r.Aux, s.Aux})
				}
			}
		}
		sum := func(ps [][2]int64) tally {
			var t tally
			for _, p := range ps {
				t.count++
				t.sum += pairHash(p[0], p[1])
			}
			return t
		}
		want := expected(pred, tuples)
		if len(pairs) < 2 {
			return fmt.Errorf("%s: self-test input produced %d pairs", pred.Name, len(pairs))
		}
		if got := sum(pairs); got != want {
			return fmt.Errorf("%s: oracle %+v disagrees with nested loop %+v", pred.Name, want, got)
		}
		replaced := append([][2]int64(nil), pairs...)
		replaced[0][1] = replaced[1][1] + 1000
		for name, ps := range map[string][][2]int64{
			"dropped":    pairs[1:],
			"duplicated": append(append([][2]int64(nil), pairs...), pairs[0]),
			"replaced":   replaced,
		} {
			if pairErrors(sum(ps), want) == 0 {
				return fmt.Errorf("%s: a %s pair went undetected", pred.Name, name)
			}
		}
	}
	return nil
}
