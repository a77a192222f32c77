// Package selftest checks the r3d benchmark itself: every workload runs
// at toy size, emits every metric BENCHMARK.json names with its unit,
// passes its own output checks, and yields identical counters and
// outputs with and without tracing. Run it from r3dperf/:
//
//	go test ./...
package selftest

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"r3d/r3dperf/perf"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metrics and
// workloads the code emits, both ways.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := loadBenchmark(t)
	check := func(kind string, file []metricSpec, code []perf.MetricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(file), len(code))
		}
		for i := 0; i < len(file) && i < len(code); i++ {
			if file[i].Name != code[i].Name || file[i].Unit != code[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], code %s [%s]", kind, i, file[i].Name, file[i].Unit, code[i].Name, code[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, perf.EndToEnd)
	check("per_layer", b.PerLayer, perf.PerLayer())
	if len(b.Workloads) != len(perf.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(b.Workloads), len(perf.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != perf.Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, perf.Workloads[i])
		}
	}
}

// TestWorkloadsAtToySize runs every workload untraced and traced.
func TestWorkloadsAtToySize(t *testing.T) {
	b := loadBenchmark(t)
	base, err := perf.LoadBaseline(filepath.Join("..", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := perf.Config{Workload: w.Name, Seed: 3, Seconds: 1, Toy: true, OutDir: t.TempDir(), Baseline: base}
			plain, err := perf.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trace = true
			traced, err := perf.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*perf.Result{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d problems=%v", r.Correct, r.Attempted, r.Failed, r.Problems)
				}
			}
			expectMetrics(t, "untraced", plain.Metrics, b.EndToEnd, true)
			expectMetrics(t, "traced", traced.Metrics, b.PerLayer, false)
			for _, pair := range [][2]perf.Output{
				{plain.Output, traced.Output},
				{traced.Output, traced.TracedOutput},
			} {
				a, _ := json.Marshal(pair[0])
				c, _ := json.Marshal(pair[1])
				if string(a) != string(c) {
					t.Errorf("outputs differ:\n %s\n %s", a, c)
				}
			}
			if len(plain.Output.Counters) == 0 || plain.Output.Digest == "" {
				t.Errorf("empty output: %+v", plain.Output)
			}
		})
	}
}

// expectMetrics requires exactly the named metrics, each with its unit;
// end-to-end metrics must also be positive.
func expectMetrics(t *testing.T, label string, got map[string]perf.Metric, want []metricSpec, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d named", label, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, m.Name, g.Unit, m.Unit)
		case positive && !(g.Value > 0):
			t.Errorf("%s: metric %s = %v, want > 0", label, m.Name, g.Value)
		}
	}
}

// TestSelfTime checks span self time against a hand-computed trace.
func TestSelfTime(t *testing.T) {
	spans := []perf.Span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
	}
	want := map[string][2]float64{"pass": {100, 40}, "a": {60, 60}, "b": {30, 30}}
	for _, lt := range perf.Summarize(spans) {
		w := want[lt.Name]
		if math.Abs(lt.TotalMS*1e6-w[0]) > 1e-6 || math.Abs(lt.SelfMS*1e6-w[1]) > 1e-6 {
			t.Errorf("%s: total %v self %v ns, want %v %v", lt.Name, lt.TotalMS*1e6, lt.SelfMS*1e6, w[0], w[1])
		}
	}
}
