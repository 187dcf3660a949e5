// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the public APIs of the engine, the wire
// server and client, the relation layer and durable storage, checks every
// result, and prints the metrics named in BENCHMARK.json.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload wire_point --seed 1 --seconds 10 --trace 0
//
// Workloads (all closed loop: each caller waits for its reply):
//
//   - wire_point: 2 client sessions over loopback TCP on an in-memory
//     100k-row table — prepared Zipf point lookups, 100-row range scans
//     and one-shot texts from a pool larger than the statement cache.
//   - analytic_3lang: one in-process caller cycling transitive closure,
//     join + group-by, anti-join and range aggregate, each written in SQL,
//     ARC and Datalog, all three checked against each other and a Go
//     oracle.
//   - durable_oltp: 2 engine sessions on a durable (fsync) database, each
//     with its own 20k-row table, doing balanced insert/update/delete
//     churn, reads of the key just written and retried multi-row
//     transactions, with a checkpoint every fixed number of commits.
//   - cold_start: OpenDurable of a 20k-row checkpoint plus a fixed
//     60-commit WAL, repeated.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, gathered from spans
// the benchmark keeps around its own calls into each layer and from the
// counters the layers export (DB.Stats, Server.Snapshot, QueryTraced,
// RecoveryStats). Lines before it are a human-readable report, including
// the workload-specific end-to-end figures (commit and read-after-write
// percentiles, recovery time, disk bytes per row, fail ratio).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// corrupt perturbs one expected result, so a run over a correct
	// engine must report a failure (the self-test's negative check).
	corrupt bool
	// quick builds the workload's state once instead of several times
	// (the self-test's short runs).
	quick bool
}

// result is what a workload reports.
type result struct {
	attempted int64
	failed    int64 // operations that failed or returned a wrong result
	metrics   map[string]float64
	report    []string
	spans     []span
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) reportf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// fail records one failed or wrong operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.reportf("FAIL: "+format, args...)
	}
}

// absorb adds a session's counters and report lines to r.
func (r *result) absorb(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.report = append(r.report, o.report...)
}

type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"wire_point", runWirePoint},
	{"analytic_3lang", runAnalytic},
	{"durable_oltp", runDurableOLTP},
	{"cold_start", runColdStart},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (wire_point, analytic_3lang, durable_oltp, cold_start, or all)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input and operation stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for durable stores and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			os.Exit(2)
		}
		c := cfg
		c.workload = name
		if err := runOne(os.Stdout, w, c); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// runOne runs a workload and prints its report and result line.
func runOne(out io.Writer, w workload, cfg config) error {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	res, err := w.run(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := writeSpans(cfg, res.spans); err != nil {
			return err
		}
	}
	line, err := resultLine(cfg, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, l := range res.report {
		fmt.Fprintln(out, "#", l)
	}
	fmt.Fprintf(out, "# fail_ratio=%.6g (%d failed or wrong of %d attempted)\n",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	fmt.Fprintln(out, string(line))
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultLine renders the final JSON line: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one. A metric the
// workload did not produce is an error, not a silent gap.
func resultLine(cfg config, res *result) ([]byte, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	out := resultOut{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload did not report %v", missing)
	}
	return json.Marshal(out)
}

// deadline returns when a measured phase of d seconds started now ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
