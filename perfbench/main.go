// Command perfbench is the repository's benchmark. It generates one
// workload's input from a seed, drives the squall operator through its
// public API for a fixed time, checks the output of every pass against
// an independent oracle, and prints the metrics as the last line of
// standard output:
//
//	perfbench --workload eq5-skew-ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced passes.
// With --trace 1 it alternates untraced and traced passes, reports the
// per-layer metrics of the traced ones plus the tracing overhead, and
// writes the spans it recorded under .bench_build/spans. The line
// before the result is a report with the host fingerprint, the
// correctness figures and the metrics a workload cannot share with the
// others. run.sh builds and runs it from a checkout's root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef is one reported metric. For a per-layer metric, moves
// names the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd lists the gated end-to-end metrics. The report line also
// carries latency_p50_us and latency_p99_us, ungated because a gate
// covers every workload: on the closed loops latency is the queue the
// one feeder builds ahead of the joiners, which a faster ingest path
// can lengthen.
var endToEnd = []metricDef{
	{name: "throughput_tps", unit: "1/s"},
	{name: "pairs_per_s", unit: "1/s"},
	{name: "peak_heap_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

var perLayer = []metricDef{
	{"squall.send_ns_per_tuple", "ns", "throughput_tps on eq5-skew-ingest"},
	{"squall.send_busy_frac", "frac", "throughput_tps on eq5-skew-ingest"},
	{"squall.wait_ms", "ms", "throughput_tps on bci-band-fanout"},
	{"squall.sink_pairs_per_call", "pairs/call", "pairs_per_s on bci-band-fanout"},
	{"squall.sink_calls", "count", "pairs_per_s on bci-band-fanout"},
	{"squall.gen_lag_max_ms", "ms", "latency_p99_us on fluct-ckpt-open"},
	{"core.routed_per_tuple", "msgs/tuple", "throughput_tps on eq5-skew-ingest"},
	{"core.mean_batch", "msgs", "throughput_tps on eq5-skew-ingest; latency_p50_us on fluct-ckpt-open"},
	{"core.flush_full_frac", "frac", "throughput_tps on eq5-skew-ingest; latency_p50_us on fluct-ckpt-open"},
	{"core.flush_linger_frac", "frac", "throughput_tps on eq5-skew-ingest; latency_p50_us on fluct-ckpt-open"},
	{"core.flush_idle_frac", "frac", "throughput_tps on eq5-skew-ingest; latency_p50_us on fluct-ckpt-open"},
	{"core.flush_signal_frac", "frac", "throughput_tps on eq5-skew-ingest; latency_p50_us on fluct-ckpt-open"},
	{"core.lane_spills", "count", "pairs_per_s on bci-band-fanout"},
	{"core.emit_spills", "count", "pairs_per_s on bci-band-fanout"},
	{"core.migrations", "count", "latency_p99_us on fluct-ckpt-open"},
	{"core.migration_drain_ms", "ms", "latency_p99_us on fluct-ckpt-open"},
	{"core.migrated_tuples", "tuples", "latency_p99_us on fluct-ckpt-open"},
	{"core.mig_mean_batch", "msgs", "latency_p99_us on fluct-ckpt-open"},
	{"core.checkpoint_ms_p50", "ms", "latency_p99_us on fluct-ckpt-open"},
	{"core.checkpoint_ms_max", "ms", "latency_p99_us on fluct-ckpt-open"},
	{"core.checkpoints", "count", "latency_p99_us on fluct-ckpt-open"},
	{"core.checkpoint_failures", "count", "latency_p99_us on fluct-ckpt-open"},
	{"core.replay_log_len", "tuples", "peak_heap_mb on fluct-ckpt-open"},
	{"storage.write_ms_p50", "ms", "latency_p99_us on fluct-ckpt-open"},
	{"storage.write_ms_max", "ms", "latency_p99_us on fluct-ckpt-open"},
	{"storage.bytes_per_checkpoint", "B", "latency_p99_us on fluct-ckpt-open"},
	{"storage.load_ms", "ms", "restore_s on fluct-ckpt-open"},
	{"storage.decode_ms", "ms", "restore_s on fluct-ckpt-open"},
	{"join.ilf_max_tuples", "tuples", "ilf_ratio and peak_heap_mb on every workload"},
	{"join.ilf_mean_tuples", "tuples", "ilf_ratio and peak_heap_mb on every workload"},
	{"join.stored_mb", "MB", "peak_heap_mb on every workload"},
	{"join.spilled_tuples", "tuples", "peak_heap_mb on every workload"},
	{"transport.bytes_per_tuple", "B/tuple", "throughput_tps on eq5-dist-tcp"},
	{"transport.frames_hello", "count", "setup_s on eq5-dist-tcp"},
	{"transport.frames_data", "count", "throughput_tps on eq5-dist-tcp"},
	{"transport.frames_mig", "count", "throughput_tps on eq5-dist-tcp"},
	{"transport.frames_ack", "count", "throughput_tps on eq5-dist-tcp"},
	{"transport.frames_pairs", "count", "throughput_tps on eq5-dist-tcp"},
	{"transport.frames_done", "count", "throughput_tps on eq5-dist-tcp"},
	{"trace.overhead_frac", "frac", "none: the throughput the traced passes lose against the untraced ones"},
	{"trace.spans", "count", "none: spans recorded in the traced passes"},
}

// spansDir is where a traced run writes its spans, relative to the
// checkout root the benchmark runs from.
var spansDir = filepath.Join(".bench_build", "spans")

// bench holds one run's generated input and settings.
type bench struct {
	seed int64
	in   *input
	base time.Time
	mask uint64
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the generated input")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 to report per-layer metrics from traced passes")
	flag.Parse()

	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle self-test failed:", err)
		return 1
	}
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		return 2
	}

	genStart := time.Now()
	in := sp.gen(*seed)
	gen := time.Since(genStart)
	b := &bench{seed: *seed, in: in, base: time.Now(), mask: sampleMask(in.want.count)}
	var rec *recorder
	if *trace == 1 {
		rec = newRecorder(b.base)
	}
	iters := b.measure(sp, time.Duration(*seconds*float64(time.Second)), rec)

	res, rep := summarize(b, sp, iters, rec)
	rep["generate_s"] = gen.Seconds()
	rep["oracle_selftest"] = "passed: a dropped, a duplicated and a replaced pair are each detected"
	if rec != nil {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed-%d.jsonl", sp.name, *seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		rep["spans_file"] = path
		rep["spans_dropped"] = rec.dropped
		self := make(map[string]float64)
		for k, v := range rec.selfTime() {
			self[k] = ms(v)
		}
		rep["span_self_ms"] = self
		moves := make(map[string]string)
		for _, d := range perLayer {
			moves[d.name] = d.moves
		}
		rep["per_layer_moves"] = moves
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, sp := range specs {
		if i > 0 {
			s += "|"
		}
		s += sp.name
	}
	return s
}

// sampleMask picks a power-of-two sampling rate that keeps about 64k
// latency samples per pass.
func sampleMask(pairs int64) uint64 {
	m := uint64(1)
	for int64(m)*65536 < pairs {
		m <<= 1
	}
	return m - 1
}

// warmup is the least time spent on passes that are checked but not
// measured: the first passes of a process run while the heap grows
// from nothing and are markedly slower than the rest.
const warmup = 1500 * time.Millisecond

// measure runs warm-up passes, then measured passes until the time
// budget is spent: at least three, or four when traced, alternating
// untraced and traced passes.
func (b *bench) measure(sp *spec, budget time.Duration, rec *recorder) []*iteration {
	var iters []*iteration
	pass := func(i int, warm, traced bool) {
		// Each pass starts from a collected heap, so one pass's garbage
		// does not land in the next one's timings.
		runtime.GC()
		it := &iteration{n: i, warmup: warm, ilfRatio: math.NaN()}
		if traced {
			it.traced, it.rec = true, rec
			rec.setRun(fmt.Sprintf("%s/seed-%d/pass-%d", sp.name, b.seed, i))
		}
		root := it.rec.start("bench.pass", 0)
		it.root = root.id
		if err := sp.run(b, it); err != nil {
			it.call("setup", err)
		}
		root.end()
		iters = append(iters, it)
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < warmup; i++ {
		pass(i, true, false)
	}
	minIters := 3
	if rec != nil {
		minIters = 4
	}
	start = time.Now()
	for i := 0; ; i++ {
		if spent := time.Since(start); i >= minIters && spent+spent/time.Duration(i) > budget {
			break
		}
		pass(len(iters), false, rec != nil && i%2 == 1)
	}
	return iters
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize reduces the passes to the result line (medians over
// passes) and the report line.
func summarize(b *bench, sp *spec, iters []*iteration, rec *recorder) (result, map[string]any) {
	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	var pairErrs int64
	var errs []string
	var plain, traced []*iteration
	passes := make([]map[string]any, 0, len(iters))
	for _, it := range iters {
		res.Attempted += it.calls
		res.Failed += it.failed
		e := pairErrors(it.got, b.in.want) + it.stateErrs
		pairErrs += e
		if e != 0 {
			res.Correct = false
			errs = append(errs, fmt.Sprintf("pass %d: %d pairs delivered, oracle %d, checksum match %v, restored state errors %d",
				it.n, it.got.count, b.in.want.count, it.got.sum == b.in.want.sum, it.stateErrs))
		}
		errs = append(errs, it.errs...)
		switch {
		case it.warmup:
		case it.traced:
			traced = append(traced, it)
		default:
			plain = append(plain, it)
		}
		it.e2e = passMetrics(len(b.in.tuples), it)
		passes = append(passes, map[string]any{
			"warmup": it.warmup, "traced": it.traced, "metrics": it.e2e,
			"pairs": it.got.count, "pair_errors": e, "failed_calls": it.failed,
		})
	}
	res.Attempted = max(res.Attempted, 1)

	e2e := endToEndValues(plain)
	if rec == nil {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: median(e2e[d.name]), Unit: d.unit}
		}
	} else {
		for _, d := range perLayer {
			var xs []float64
			for _, it := range traced {
				xs = append(xs, it.layer[d.name])
			}
			res.Metrics[d.name] = metricValue{Value: median(xs), Unit: d.unit}
		}
		tps := endToEndValues(traced)["throughput_tps"]
		res.Metrics["trace.overhead_frac"] = metricValue{Value: 1 - median(tps)/median(e2e["throughput_tps"]), Unit: "frac"}
		res.Metrics["trace.spans"] = metricValue{Value: float64(rec.count()), Unit: "count"}
	}

	rep := map[string]any{
		"workload":        sp.name,
		"why":             sp.why,
		"seed":            b.seed,
		"trace":           rec != nil,
		"host":            fingerprint(),
		"input_tuples":    len(b.in.tuples),
		"input_r":         b.in.nR,
		"input_s":         b.in.nS,
		"oracle_pairs":    b.in.want.count,
		"passes":          passes,
		"send_error_frac": float64(res.Failed) / float64(res.Attempted),
		"pair_error_frac": float64(pairErrs) / float64(max(b.in.want.count*int64(len(iters)), 1)),
	}
	untracedMedians := make(map[string]float64)
	for k, xs := range e2e {
		untracedMedians[k] = median(xs)
	}
	rep["end_to_end"] = untracedMedians
	// Figures only some workloads define.
	var ilf, restore, lag []float64
	for _, it := range plain {
		if !math.IsNaN(it.ilfRatio) {
			ilf = append(ilf, it.ilfRatio)
		}
		if it.restore > 0 {
			restore = append(restore, it.restore.Seconds())
		}
		if v, ok := it.layer["squall.gen_lag_max_ms"]; ok {
			lag = append(lag, v)
		}
	}
	if len(ilf) > 0 {
		rep["ilf_ratio"] = median(ilf)
	} else {
		rep["ilf_ratio"] = "missing"
	}
	if len(restore) > 0 {
		rep["restore_s"] = median(restore)
	}
	if len(lag) > 0 {
		rep["gen_lag_max_ms"] = median(lag)
	}
	if len(sp.gaps) > 0 {
		rep["known_gaps"] = sp.gaps
	}
	if len(errs) > 0 {
		rep["errors"] = errs[:min(len(errs), 20)]
	}
	return res, rep
}

// endToEndValues returns, per end-to-end metric, one value per pass.
func endToEndValues(iters []*iteration) map[string][]float64 {
	out := make(map[string][]float64)
	for _, it := range iters {
		for k, v := range it.e2e {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// passMetrics returns one pass's end-to-end figures: none for a pass
// that did not finish, and no latency for one that took no samples.
func passMetrics(tuples int, it *iteration) map[string]float64 {
	out := make(map[string]float64)
	if it.elapsed <= 0 {
		return out
	}
	out["throughput_tps"] = float64(tuples) / it.elapsed.Seconds()
	out["pairs_per_s"] = float64(it.got.count) / it.elapsed.Seconds()
	out["peak_heap_mb"] = float64(it.peakHeap) / 1e6
	out["setup_s"] = it.setup.Seconds()
	if len(it.lat) > 0 {
		slices.Sort(it.lat)
		out["latency_p50_us"] = float64(percentile(it.lat, 0.50)) / 1e3
		out["latency_p99_us"] = float64(percentile(it.lat, 0.99)) / 1e3
		out["latency_samples"] = float64(len(it.lat))
	}
	return out
}
