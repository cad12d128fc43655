package main

import (
	squall "repro"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// input is one workload's pre-generated stream. Every tuple's Aux is
// its stream index, which identifies it in result pairs; no workload
// predicate reads Aux.
type input struct {
	tuples []squall.Tuple
	nR, nS int64
	pred   squall.Predicate
	want   tally
}

// dimensionSeed seeds the TPC-H SUPPLIER table of the EQ5 workloads.
// The Z4 LINEITEM stream, which --seed drives, sends about a tenth of
// all tuples to supplier 1; drawing the supplier table from the run
// seed as well would let that one supplier's region flip EQ5's output
// volume by half between seeds.
const dimensionSeed = 1

// eq5Input is TPC-H EQ5, (REGION ⋈ NATION ⋈ SUPPLIER restricted to
// ASIA) ⋈ LINEITEM on suppkey, with Z4-skewed l_suppkey: the supplier
// side is interleaved into the lineitem stream in proportion, as
// workload.EQ5 does.
func eq5Input(seed int64, sf float64) *input {
	dim := tpch.NewGen(tpch.Config{SF: sf, Seed: dimensionSeed})
	var rs []squall.Tuple
	for _, row := range dim.SupplierSide(2) { // ASIA
		rs = append(rs, squall.Tuple{Rel: squall.SideR, Key: int64(row.SuppKey), Size: 16})
	}
	facts := tpch.NewGen(tpch.Config{SF: sf, Zipf: tpch.SkewZ("Z4"), Seed: seed})
	ns := facts.NumLineitems()
	in := &input{pred: squall.Equi("EQ5"), tuples: make([]squall.Tuple, 0, len(rs)+ns)}
	ri, acc := 0, 0
	facts.Lineitems(func(l tpch.Lineitem) bool {
		for acc += len(rs); acc >= ns && ri < len(rs); acc -= ns {
			in.add(rs[ri])
			ri++
		}
		in.add(squall.Tuple{Rel: squall.SideS, Key: int64(l.SuppKey), Size: 120})
		return true
	})
	for ; ri < len(rs); ri++ {
		in.add(rs[ri])
	}
	return in
}

// bciInput is the paper's BCI band join (|shipdate difference| <= 1,
// L1 TRUCK with quantity > 45 against L2 not TRUCK) over a Z2 database.
func bciInput(seed int64, sf float64) *input {
	q := workload.BCI()
	in := &input{pred: q.Pred}
	q.Stream(tpch.NewGen(tpch.Config{SF: sf, Zipf: tpch.SkewZ("Z2"), Seed: seed}), func(t squall.Tuple) bool {
		in.add(t)
		return true
	})
	return in
}

// fluctInput is Fluct-Join (ORDERS ⋈ LINEITEM on orderkey) under the
// §5.4 schedule: the cardinality ratio swings between k and 1/k.
func fluctInput(seed int64, sf float64, k int64) *input {
	in := &input{pred: workload.FluctJoin().Pred}
	workload.FluctStream(tpch.NewGen(tpch.Config{SF: sf, Zipf: tpch.SkewZ("Z2"), Seed: seed}), k, func(t squall.Tuple) bool {
		in.add(t)
		return true
	})
	return in
}

// add appends t as the next stream element.
func (in *input) add(t squall.Tuple) {
	t.Aux = int64(len(in.tuples))
	in.tuples = append(in.tuples, t)
	if t.Rel == squall.SideR {
		in.nR++
	} else {
		in.nS++
	}
}

// finish computes the oracle tally; call it once the stream is built.
func (in *input) finish() *input {
	in.want = expected(in.pred, in.tuples)
	return in
}
