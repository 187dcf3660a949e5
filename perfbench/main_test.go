package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runLine runs one short workload and parses its result line.
func runLine(t *testing.T, w workload, trace, corrupt bool) resultOut {
	t.Helper()
	cfg := config{workload: w.name, seed: 7, seconds: 0.3, trace: trace, workdir: t.TempDir(), corrupt: corrupt, quick: true}
	var out bytes.Buffer
	if err := runOne(&out, w, cfg); err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", w.name, err, out.String())
	}
	if !corrupt && (!res.Correct || res.Failed != 0 || res.Attempted < 1) {
		t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

func checkMetrics(t *testing.T, name string, got map[string]metricOut, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", name, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", name, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks every metric BENCHMARK.json names is emitted with
// its unit; end-to-end metrics must be nonzero.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, ws := range spec.Workloads {
		w, ok := findWorkload(ws.Name)
		if !ok || workloads[i].name != ws.Name {
			t.Fatalf("BENCHMARK.json workload %q is not the benchmark's workload %d", ws.Name, i)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := runLine(t, w, false, false)
			checkMetrics(t, w.name, res.Metrics, spec.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			res = runLine(t, w, true, false)
			checkMetrics(t, w.name+" traced", res.Metrics, spec.PerLayer)
		})
	}
}

// TestCorruptExpectationFails checks the result checks bite: with one
// expected result perturbed, every workload must report a failure.
func TestCorruptExpectationFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := runLine(t, w, false, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("%s with a corrupted expectation: correct=%v failed=%d, want a failure", w.name, res.Correct, res.Failed)
			}
		})
	}
}
