package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	squall "repro"
)

// joiners is the joiner count of every workload.
const joiners = 16

// feedBatch is the number of tuples per SendBatch call.
const feedBatch = 64

// spec describes one workload: how its input is generated from the
// seed and how one iteration drives the operator.
type spec struct {
	name string
	why  string
	// gaps lists what the workload cannot measure through the public
	// API, printed with every result.
	gaps []string
	gen  func(seed int64) *input
	run  func(b *bench, it *iteration) error
}

var specs = []spec{
	{
		name: "eq5-skew-ingest",
		why: "TPC-H EQ5 at Z4, about 0.2 pairs per tuple: bound by ingest, routing and hash insert/probe. " +
			"Closed loop, one feeder.",
		gen: func(seed int64) *input { return eq5Input(seed, 0.5).finish() },
		run: func(b *bench, it *iteration) error {
			return b.closedLoop(it, []squall.Option{squall.WithJoiners(joiners), squall.WithAdaptive()}, 0)
		},
	},
	{
		name: "bci-band-fanout",
		why: "BCI band join at Z2, about 10 pairs per tuple: bound by probe, materialize and the emit plane. " +
			"Closed loop, one feeder, nproc emit workers.",
		gen: func(seed int64) *input { return bciInput(seed, 1).finish() },
		run: func(b *bench, it *iteration) error {
			return b.closedLoop(it, []squall.Option{squall.WithJoiners(joiners), squall.WithAdaptive(), squall.WithEmitWorkers(0)}, 0)
		},
	},
	{
		name: "fluct-ckpt-open",
		why: "Fluct-Join k=4 at Z2: repeated migrations, checkpoints beside joins, restore of the last one. " +
			"Open loop at 70k tuples/s in 1 ms chunks.",
		gaps: []string{"no crash in the middle of the stream and no ReplayFrom: on 2+ cores the operator can log a zeroed " +
			"envelope in place of a tuple it accepted (the replay-log publication race), so a replay can lose pairs; " +
			"restore_s times only the Restore of the end-of-stream checkpoint"},
		gen: func(seed int64) *input { return fluctInput(seed, 0.25, 4).finish() },
		run: func(b *bench, it *iteration) error { return b.fluctOpenLoop(it, 70_000) },
	},
	{
		name: "eq5-dist-tcp",
		why: "EQ5 at Z4 with the joiners on two in-process workers over TCP loopback: the only workload that measures transport. " +
			"Closed loop, one feeder.",
		gaps: []string{"the coordinator's per-joiner counters read 0 for remote joiners: " +
			"ilf_ratio is missing and the join.* layer metrics read 0"},
		gen: func(seed int64) *input { return eq5Input(seed, 0.5).finish() },
		run: func(b *bench, it *iteration) error {
			return b.closedLoop(it, []squall.Option{squall.WithJoiners(joiners), squall.WithAdaptive()}, 2)
		},
	},
}

// iteration is one pass of a workload's whole input through a freshly
// built operator.
type iteration struct {
	n      int
	warmup bool // checked, but left out of the metrics
	traced bool
	rec    *recorder // nil when untraced
	root   int64

	setup    time.Duration // pipeline build → Run return (workers listening and linked)
	elapsed  time.Duration // first send → Wait return
	got      tally
	calls    int64
	failed   int64
	errs     []string
	lat      []int64
	peakHeap uint64
	// ilfRatio is NaN where the coordinator cannot see the joiners'
	// counters; restore is 0 on workloads without checkpoints.
	ilfRatio float64
	restore  time.Duration
	// stateErrs counts the pairs by which a restored checkpoint's
	// emitted counts miss the oracle, plus any pair emitted after it.
	stateErrs int64
	layer     map[string]float64
	e2e       map[string]float64 // this pass's end-to-end figures
}

// call accounts one call into the operator's API.
func (it *iteration) call(what string, err error) {
	it.calls++
	if err != nil {
		it.failed++
		it.errs = append(it.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// closedLoop feeds the whole input from one goroutine as fast as
// SendBatch accepts it. With workers > 0 the joiners run on that many
// in-process worker servers reached over TCP loopback (through a
// counting relay when traced). A pair's latency is measured from the
// start of the SendBatch call that carried its newer tuple.
func (b *bench) closedLoop(it *iteration, opts []squall.Option, workers int) error {
	tuples := b.in.tuples
	sentAt := make([]int64, (len(tuples)+feedBatch-1)/feedBatch)
	col := newCollector(b.base, b.mask, func(newer int64) int64 { return sentAt[newer/feedBatch] })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	heap := startHeapSampler(5 * time.Millisecond)

	setupSpan := it.rec.start("squall.Run", it.root)
	start := time.Now()
	var servers []*squall.WorkerServer
	var relays []*relay
	serveErrs := make(chan error, workers)
	defer func() {
		for _, ws := range servers {
			ws.Close() // the listener may already be closed by the finished session
		}
		for _, r := range relays {
			r.close()
		}
	}()
	if workers > 0 {
		var addrs []string
		for i := 0; i < workers; i++ {
			ws, err := squall.NewWorkerServer("127.0.0.1:0")
			if err != nil {
				heap.peak()
				return fmt.Errorf("worker listen: %w", err)
			}
			servers = append(servers, ws)
			go func() { serveErrs <- ws.Serve(ctx) }()
			addr := ws.Addr()
			if it.traced {
				r, err := newRelay(addr, it.rec, it.root)
				if err != nil {
					heap.peak()
					return fmt.Errorf("relay listen: %w", err)
				}
				relays = append(relays, r)
				addr = r.addr()
			}
			addrs = append(addrs, addr)
		}
		opts = append(opts, squall.WithWorkers(addrs...))
	}
	p := squall.NewPipeline(squall.WithSeed(b.seed))
	st := p.Join(b.in.pred, opts...).To(col.sink())
	err := p.Run(ctx)
	it.setup = time.Since(start)
	setupSpan.end()
	it.call("Run", err)
	if err != nil {
		heap.peak()
		return nil
	}

	t0 := time.Now()
	var busy time.Duration
	for i := 0; i < len(tuples); i += feedBatch {
		sentAt[i/feedBatch] = int64(time.Since(b.base))
		sp := it.rec.start("squall.SendBatch", it.root)
		err := st.SendBatch(tuples[i:min(i+feedBatch, len(tuples))])
		busy += sp.end()
		if it.call("SendBatch", err); err != nil {
			break
		}
	}
	feedWall := time.Since(t0)
	waitSpan := it.rec.start("squall.Wait", it.root)
	err = p.Wait()
	it.elapsed = time.Since(t0)
	wait := waitSpan.end()
	if it.call("Wait", err); err != nil {
		cancel() // a failed coordinator may leave worker sessions waiting
	}
	for range servers {
		if err := <-serveErrs; err != nil {
			it.errs = append(it.errs, fmt.Sprintf("worker Serve: %v", err))
		}
	}
	it.peakHeap = heap.peak()
	it.got = col.total()

	m := st.Metrics()
	it.layer = coreLayer(int64(len(tuples)), m)
	addJoinLayer(it.layer, m)
	it.ilfRatio = b.ilfRatio(m)
	it.layer["squall.send_ns_per_tuple"] = float64(busy.Nanoseconds()) / float64(len(tuples))
	it.layer["squall.send_busy_frac"] = busy.Seconds() / feedWall.Seconds()
	it.layer["squall.wait_ms"] = ms(wait)
	addSinkLayer(it.layer, col)
	var frames [numFrameKinds]int64
	var bytes int64
	for _, r := range relays {
		if err := r.close(); err != nil {
			it.errs = append(it.errs, fmt.Sprintf("relay: %v", err))
		}
		bytes += r.bytes.Load()
		for k := range frames {
			frames[k] += r.frames[k].Load()
		}
	}
	relays = nil
	it.layer["transport.bytes_per_tuple"] = float64(bytes) / float64(len(tuples))
	for k, name := range frameKinds {
		if name != "" && name != "error" {
			it.layer["transport.frames_"+name] = float64(frames[k])
		}
	}
	it.lat = col.latencies(nil)
	return nil
}

// openChunk is the open-loop generator's send interval: every
// interval it sends the tuples the rate makes due in it, all due at its
// start.
const openChunk = time.Millisecond

// fluctOpenLoop sends the input on a fixed schedule of rate tuples/s,
// one chunk per openChunk whether or not the operator keeps up, while
// a second goroutine takes a checkpoint at every eighth of the input,
// the last at end of stream. After Finish it restores a new operator
// from the backend and checks the round trip: the restored per-shard
// emitted counts must add up to the oracle's pair count, and finishing
// the restored operator must emit nothing.
//
// The crash in the middle of the stream that ReplayFrom is for is not
// part of the workload: the operator can log a zeroed envelope instead
// of a tuple it accepted (the replay-log publication race), so a replay
// on 2+ cores can lose a tuple and its pairs.
func (b *bench) fluctOpenLoop(it *iteration, rate float64) error {
	tuples := b.in.tuples
	n := int64(len(tuples))
	chunk := int64(rate * openChunk.Seconds())
	var t0 int64 // the schedule's origin, ns since base
	due := func(idx int64) int64 { return t0 + idx/chunk*int64(openChunk) }
	col := newCollector(b.base, b.mask, due)

	var parent atomic.Int64
	mem := squall.NewMemBackend()
	var backend squall.Backend = mem
	var tb *timedBackend
	if it.traced {
		tb = &timedBackend{inner: mem, rec: it.rec, parent: &parent}
		backend = tb
	}
	heap := startHeapSampler(5 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	setupSpan := it.rec.start("squall.Run", it.root)
	start := time.Now()
	p := squall.NewPipeline(squall.WithSeed(b.seed))
	st := p.Join(b.in.pred, squall.WithJoiners(joiners), squall.WithAdaptive(), squall.WithBackend(backend)).To(col.sink())
	err := p.Run(ctx)
	it.setup = time.Since(start)
	setupSpan.end()
	if it.call("Run", err); err != nil {
		heap.peak()
		return nil
	}
	op := st.Engine().(*squall.Operator)

	// The checkpointer takes checkpoints in request order; the channel
	// holds every request of one iteration.
	reqs := make(chan chan error, 8)
	var ckptDur durations
	ckptExit := make(chan struct{})
	go func() {
		defer close(ckptExit)
		for done := range reqs {
			sp := it.rec.start("core.Checkpoint", it.root)
			parent.Store(sp.id)
			t := time.Now()
			err := op.Checkpoint()
			ckptDur = append(ckptDur, time.Since(t))
			sp.end()
			done <- err
		}
	}()
	var pending []chan error

	var busy, lagMax time.Duration
	send := func(lo, hi int64) error {
		for i := lo; i < hi; {
			now := int64(time.Since(b.base))
			if d := due(i); d > now {
				sleepFor(time.Duration(d - now))
				continue
			}
			lagMax = max(lagMax, time.Duration(now-due(i)))
			j := i + 1
			for j < hi && j-i < feedBatch && due(j) <= now {
				j++
			}
			sp := it.rec.start("squall.SendBatch", it.root)
			err := op.SendBatch(tuples[i:j])
			busy += sp.end()
			if it.call("SendBatch", err); err != nil {
				return err
			}
			i = j
		}
		return nil
	}

	begin := time.Now()
	t0 = int64(begin.Sub(b.base))
	var pos int64
	for k := int64(1); k <= 8; k++ {
		next := k * n / 8
		if send(pos, next) != nil {
			break
		}
		pos = next
		done := make(chan error, 1)
		pending = append(pending, done)
		reqs <- done
	}
	for _, done := range pending {
		it.call("Checkpoint", <-done)
	}
	close(reqs)
	<-ckptExit
	waitSpan := it.rec.start("squall.Wait", it.root)
	waitStart := time.Now()
	it.call("Wait", p.Wait())
	it.elapsed = time.Since(begin)
	it.layer = map[string]float64{"squall.wait_ms": ms(time.Since(waitStart))}
	waitSpan.end()
	it.peakHeap = heap.peak()
	it.got = col.total()
	m := op.Metrics()
	it.layer["core.replay_log_len"] = float64(op.ReplayLog().Len())
	for k, v := range coreLayer(n, m) {
		it.layer[k] = v
	}
	addJoinLayer(it.layer, m)
	it.ilfRatio = b.ilfRatio(m)
	it.layer["squall.send_ns_per_tuple"] = float64(busy.Nanoseconds()) / float64(n)
	it.layer["squall.send_busy_frac"] = busy.Seconds() / it.elapsed.Seconds()
	it.layer["squall.gen_lag_max_ms"] = ms(lagMax)
	it.layer["core.checkpoint_ms_p50"] = ms(ckptDur.quantile(0.5))
	it.layer["core.checkpoint_ms_max"] = ms(ckptDur.max())
	addSinkLayer(it.layer, col)
	it.lat = col.latencies(nil)
	if pos < n {
		return nil // a failed send left no end-of-stream checkpoint to restore
	}

	// Restore the end-of-stream checkpoint into a new operator.
	restoreSpan := it.rec.start("squall.Restore", it.root)
	parent.Store(restoreSpan.id)
	restoreStart := time.Now()
	restored := newCollector(b.base, b.mask, func(int64) int64 { return -1 })
	op2, info, err := squall.Restore(backend, b.in.pred, restored.sink(), squall.WithAdaptive())
	it.restore = time.Since(restoreStart)
	restoreSpan.end()
	if it.call("Restore", err); err != nil {
		return nil
	}
	op2.StartContext(ctx)
	it.call("Finish", op2.Finish())
	var emitted int64
	for _, e := range info.Emitted {
		emitted += e
	}
	if d, extra := emitted-b.in.want.count, restored.total().count; d != 0 || extra != 0 {
		it.stateErrs = max(d, -d) + extra
		it.errs = append(it.errs, fmt.Sprintf("restored checkpoint: %d pairs emitted at the barrier, oracle %d; %d pairs emitted after restore",
			emitted, b.in.want.count, extra))
	}
	if tb != nil {
		it.layer["storage.write_ms_p50"] = ms(tb.writes.quantile(0.5))
		it.layer["storage.write_ms_max"] = ms(tb.writes.max())
		if len(tb.writes) > 0 {
			it.layer["storage.bytes_per_checkpoint"] = float64(tb.bytes) / float64(len(tb.writes))
		}
		it.layer["storage.load_ms"] = ms(tb.loads)
		it.layer["storage.decode_ms"] = ms(it.restore - tb.loads)
	}
	return nil
}

// ilfRatio is the paper's competitive ratio (§3.3): the largest
// per-joiner input load, taken as resident tuples at end of stream,
// over the ILF of the optimal mapping for the final |R| and |S|. It is
// NaN when every joiner's counters read 0, as they do at the
// coordinator for joiners placed on workers.
func (b *bench) ilfRatio(m *squall.OperatorMetrics) float64 {
	opt := squall.OptimalMapping(joiners, float64(b.in.nR), float64(b.in.nS)).ILF(float64(b.in.nR), float64(b.in.nS))
	var maxStored int64
	for j := 0; j < m.NumJoiners(); j++ {
		maxStored = max(maxStored, m.JoinerStats(j).StoredTuples.Load())
	}
	if maxStored == 0 {
		return math.NaN()
	}
	return float64(maxStored) / opt
}

// coreLayer derives the core layer's counts from the operator counters
// of every operator that handled the input.
func coreLayer(tuples int64, mets ...*squall.OperatorMetrics) map[string]float64 {
	var routed, batches, batched, full, linger, idle, signal, laneSp, emitSp int64
	var migs, migNanos, migrated, migBatches, migBatched, ckpts, ckptFail int64
	for _, m := range mets {
		routed += m.RoutedMessages.Load()
		batches += m.BatchesSent.Load()
		batched += m.BatchedMessages.Load()
		full += m.BatchFlushFull.Load()
		linger += m.BatchFlushLinger.Load()
		idle += m.BatchFlushIdle.Load()
		signal += m.BatchFlushSignal.Load()
		laneSp += m.LaneSpills.Load()
		emitSp += m.EmitSpills.Load()
		migs += m.Migrations.Load()
		migNanos += m.MigrationNanos.Load()
		migrated += m.TotalMigrated()
		migBatches += m.MigBatchesSent.Load()
		migBatched += m.MigBatchedMessages.Load()
		ckpts += m.Checkpoints.Load()
		ckptFail += m.CheckpointFailures.Load()
	}
	flushes := float64(max(full+linger+idle+signal, 1))
	return map[string]float64{
		"core.routed_per_tuple":    float64(routed) / float64(tuples),
		"core.mean_batch":          float64(batched) / float64(max(batches, 1)),
		"core.flush_full_frac":     float64(full) / flushes,
		"core.flush_linger_frac":   float64(linger) / flushes,
		"core.flush_idle_frac":     float64(idle) / flushes,
		"core.flush_signal_frac":   float64(signal) / flushes,
		"core.lane_spills":         float64(laneSp),
		"core.emit_spills":         float64(emitSp),
		"core.migrations":          float64(migs),
		"core.migration_drain_ms":  float64(migNanos) / 1e6,
		"core.migrated_tuples":     float64(migrated),
		"core.mig_mean_batch":      float64(migBatched) / float64(max(migBatches, 1)),
		"core.checkpoints":         float64(ckpts),
		"core.checkpoint_failures": float64(ckptFail),
	}
}

// addJoinLayer records the joiners' resident state at end of stream.
func addJoinLayer(layer map[string]float64, m *squall.OperatorMetrics) {
	var maxStored, sumStored, spilled int64
	n := m.NumJoiners()
	for j := 0; j < n; j++ {
		js := m.JoinerStats(j)
		st := js.StoredTuples.Load()
		maxStored = max(maxStored, st)
		sumStored += st
		spilled += js.SpilledTuples.Load()
	}
	layer["join.ilf_max_tuples"] = float64(maxStored)
	layer["join.ilf_mean_tuples"] = float64(sumStored) / float64(max(n, 1))
	layer["join.stored_mb"] = float64(m.TotalStorageBytes()) / 1e6
	layer["join.spilled_tuples"] = float64(spilled)
}

// addSinkLayer records how the sink was called.
func addSinkLayer(layer map[string]float64, c *collector) {
	calls, pairs := c.calls(), c.total().count
	layer["squall.sink_calls"] = float64(calls)
	layer["squall.sink_pairs_per_call"] = float64(pairs) / float64(max(calls, 1))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
