package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run reports. They are the
// ones that exist on every workload; the workload-specific figures
// (commit_*, read_after_write_*, recovery_s, disk_bytes_per_row) are
// printed in the report lines of the workloads that have them.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// Languages and analytic intents, in the order metrics are named.
var (
	langNames   = []string{"sql", "arc", "datalog"}
	intentNames = []string{"tc", "join_group", "anti", "range_agg"}
)

// perLayer lists the metrics every traced run reports. A workload that
// never calls into a layer reports that layer's figures as 0, with the
// count that is its base (for example server.queries = 0).
func perLayer() []metricDef {
	defs := []metricDef{
		{"server.queries", "count"},
		{"server.roundtrip_us", "us"},
		{"server.frames_per_op", "frames/op"},
		{"server.fetch_batches", "count"},
		{"server.rows_per_fetch_batch", "rows/batch"},
		{"engine.queries", "count"},
		{"engine.query_us", "us"},
		{"engine.prepares", "count"},
		{"engine.prepare_us", "us"},
		{"engine.cache_hit_ratio", "ratio"},
		{"engine.commits", "count"},
		{"engine.commit_us", "us"},
		{"engine.contention_commits", "count"},
		{"engine.conflict_retries_per_commit", "ratio"},
		{"engine.client_retries", "count"},
		{"plan.statements_per_lang", "count"},
	}
	for _, l := range langNames {
		defs = append(defs, metricDef{"plan.fallback_ratio_" + l, "ratio"})
	}
	for _, l := range langNames {
		for _, in := range intentNames {
			defs = append(defs,
				metricDef{fmt.Sprintf("exec.%s_%s_ms", l, in), "ms"},
				metricDef{fmt.Sprintf("exec.%s_%s_ops", l, in), "count"})
		}
	}
	for _, l := range langNames {
		defs = append(defs,
			metricDef{"fixpoint." + l + "_rounds", "count"},
			metricDef{"fixpoint." + l + "_delta_rows", "count"})
	}
	return append(defs,
		metricDef{"relation.rows", "count"},
		metricDef{"relation.clone_ms", "ms"},
		metricDef{"relation.probe_steady_us", "us"},
		metricDef{"relation.probe_after_write_us", "us"},
		metricDef{"storage.wal_records", "count"},
		metricDef{"storage.wal_bytes_per_commit", "bytes"},
		metricDef{"storage.checkpoints", "count"},
		metricDef{"storage.checkpoint_ms", "ms"},
		metricDef{"storage.replay_records", "count"},
		metricDef{"storage.replay_records_per_s", "1/s"},
		metricDef{"storage.block_cache_lookups", "count"},
		metricDef{"storage.block_cache_hit_ratio", "ratio"},
		metricDef{"trace.untraced_ops_per_s", "1/s"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}

// layerMetricTargets says which end-to-end metric, on which workload,
// each per-layer metric should move (printed with every traced run).
var layerMetricTargets = []struct{ prefix, target string }{
	{"server.roundtrip_us", "lat_p50_ms on wire_point"},
	{"server.frames_per_op", "lat_p99_ms on wire_point"},
	{"server.rows_per_fetch_batch", "lat_p99_ms on wire_point"},
	{"engine.query_us", "lat_p50_ms on wire_point"},
	{"engine.prepare_us", "lat_p99_ms on wire_point; read_after_write_p50_ms on durable_oltp"},
	{"engine.cache_hit_ratio", "lat_p99_ms on wire_point; read_after_write_p50_ms on durable_oltp"},
	{"engine.commit_us", "commit_p50_ms (lat_p50_ms) on durable_oltp"},
	{"engine.conflict_retries_per_commit", "commit_p99_ms (lat_p99_ms) on durable_oltp"},
	{"plan.", "ops_per_s on analytic_3lang"},
	{"exec.", "ops_per_s on analytic_3lang"},
	{"fixpoint.", "ops_per_s on analytic_3lang"},
	{"relation.clone_ms", "commit_p50_ms (lat_p50_ms) on durable_oltp"},
	{"relation.probe_", "read_after_write_p50_ms/p99_ms on durable_oltp"},
	{"storage.wal_bytes_per_commit", "commit_p99_ms (lat_p99_ms) on durable_oltp"},
	{"storage.checkpoint_ms", "commit_p99_ms (lat_p99_ms) on durable_oltp"},
	{"storage.replay_records_per_s", "recovery_s (lat_p50_ms, ops_per_s) on cold_start"},
	{"storage.block_cache_hit_ratio", "recovery_s on cold_start"},
	{"trace.overhead_ratio", "none: traced over untraced ops_per_s of this workload"},
}

// samples is a latency sample set.
type samples []time.Duration

// pct returns the nearest-rank p-quantile (0 < p ≤ 1).
func (s samples) pct(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(float64(len(c))*p+0.999999999) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (the upper one for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	return c[len(c)/2]
}

// ratio is a/b, or 0 when b is 0 (the base is always reported too).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recordLatency sets the shared latency metrics and reports the sample
// count they rest on.
func recordLatency(res *result, all samples, elapsed time.Duration) {
	res.metrics["ops_per_s"] = float64(len(all)) / elapsed.Seconds()
	res.metrics["lat_p50_ms"] = ms(all.pct(0.50))
	res.metrics["lat_p99_ms"] = ms(all.pct(0.99))
	res.reportf("ops_per_s=%.4g 1/s over %.3gs; lat_p50_ms=%.4g lat_p99_ms=%.4g ms (n=%d)",
		res.metrics["ops_per_s"], elapsed.Seconds(), res.metrics["lat_p50_ms"], res.metrics["lat_p99_ms"], len(all))
}

// traceOverhead sets trace.overhead_ratio, traced over untraced ops/s,
// with its base.
func traceOverhead(res *result, traced int, tracedEl time.Duration, untraced int, untracedEl time.Duration) {
	base := float64(untraced) / untracedEl.Seconds()
	res.metrics["trace.untraced_ops_per_s"] = base
	res.metrics["trace.overhead_ratio"] = ratio(float64(traced)/tracedEl.Seconds(), base)
}

// classLatency reports one operation class's percentiles in the report.
func classLatency(res *result, name string, s samples) {
	res.reportf("%s_p50_ms=%.4g %s_p99_ms=%.4g ms (n=%d)", name, ms(s.pct(0.5)), name, ms(s.pct(0.99)), len(s))
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// Each workload builds its state at least minSetupReps times and until
// setupBudget seconds of building have passed (at most maxSetupReps
// builds); setup_s is the median build time and the last build is the
// one measured. Cheap set-ups thus get more builds and a steadier median.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 2.0
)

// warmup is how long each run exercises the workload before measuring,
// so runtime and operating-system state (heap pacing, socket buffers,
// CPU frequency) settles first. Its operations are checked but not
// timed.
func warmup(cfg config) float64 { return min(cfg.seconds*0.2, 2) }

// buildMedian builds the workload's state repeatedly (see minSetupReps),
// discarding all but the last build, and records the median build time
// as setup_s.
func buildMedian[T any](cfg config, res *result, build func(rep int) (T, error), discard func(T)) (T, error) {
	var cur T
	var times []float64
	total := 0.0
	for rep := 0; rep < maxSetupReps; rep++ {
		if rep >= minSetupReps && total >= setupBudget || cfg.quick && rep == 1 {
			break
		}
		if rep > 0 {
			discard(cur)
		}
		runtime.GC() // no earlier build's garbage is collected on this one's clock
		start := time.Now()
		v, err := build(rep)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("setup: %w", err)
		}
		el := time.Since(start).Seconds()
		times = append(times, el)
		total += el
		cur = v
	}
	res.metrics["setup_s"] = median(times)
	res.reportf("setup_s=%.4g s (median of %d builds)", res.metrics["setup_s"], len(times))
	return cur, nil
}

// span is one traced call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"` // index into the same session's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one session's spans in memory; a nil tracer records
// nothing, so untraced loops share the traced code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(on bool, t0 time.Time) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: t0}
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, op uint64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// merged concatenates sessions' spans, rebasing parent indexes.
func merged(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		if t == nil {
			continue
		}
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// spanTotal is the count and summed duration of one span name.
type spanTotal struct {
	n   int
	dur time.Duration
}

// spanTotals sums duration and count per span name.
func spanTotals(spans []span) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, s := range spans {
		e := out[s.Name]
		e.n++
		e.dur += time.Duration(s.End - s.Start)
		out[s.Name] = e
	}
	return out
}

// reportSelfTimes adds the per-name self time (duration minus the part
// covered by child spans) to the report.
func reportSelfTimes(res *result, spans []span) {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		d := time.Duration(s.End - s.Start)
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	by := map[string]spanTotal{}
	for i, s := range spans {
		e := by[s.Name]
		e.n++
		e.dur += self[i]
		by[s.Name] = e
	}
	for _, n := range slices.Sorted(maps.Keys(by)) {
		e := by[n]
		res.reportf("span %-28s n=%-7d self_total_ms=%.4g self_mean_us=%.4g", n, e.n, ms(e.dur), us(e.dur)/float64(e.n))
	}
}

// writeSpans writes a traced run's spans, one JSON object per line, to
// one file per workload that the next traced run overwrites.
func writeSpans(cfg config, spans []span) (err error) {
	path := filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// zeroLayers fills every per-layer metric the workload did not set with
// 0: the workload made no call into that layer.
func zeroLayers(res *result) {
	for _, d := range perLayer() {
		if _, ok := res.metrics[d.name]; !ok {
			res.metrics[d.name] = 0
		}
	}
}

// reportTargets prints the layer → end-to-end mapping.
func reportTargets(res *result) {
	for _, t := range layerMetricTargets {
		res.reportf("layer %-36s moves %s", t.prefix, t.target)
	}
}
