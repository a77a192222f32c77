// Package perf is the r3d benchmark: four seeded workloads that drive
// the simulator's layers through their public Go APIs, check the
// outputs, and report end-to-end metrics from untraced runs and
// per-layer metrics from a separate traced run.
//
//   - windows: a fresh Fast-quality session renders every window-driven
//     registry experiment (trace → NUCA → OoO → RMT windows through the
//     runsched engine).
//   - thermal: the transient DTM study plus fresh-session steady 3-D
//     renders, with the activity windows computed during set-up.
//   - campaign: a seeded fault-injection grid through campaign.Run with
//     a durable journal and checkpoint.
//   - serve: an open loop of seeded arrivals at fixed rates into an
//     in-process serve.Server, through its HTTP handler without
//     sockets.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Config selects one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long the run measures. Workloads repeat whole
	// passes over their fixed input until the next pass would overrun
	// it (always at least one); serve sizes its arrival schedule to it.
	Seconds float64
	// Trace selects the traced run: per-layer metrics instead of the
	// end-to-end ones.
	Trace bool
	// Toy shrinks every input to a smoke-test size (the self-test).
	Toy bool
	// OutDir receives temporary journals and state, and the span file
	// of a traced run.
	OutDir string
	// Baseline holds the recorded outputs of the default and held-out
	// seeds (nil disables that comparison).
	Baseline *Baseline
	// Log receives diagnostics (nil discards them).
	Log io.Writer
}

// logf writes a diagnostic line to the run's log.
func (c Config) logf(format string, args ...any) {
	_, _ = fmt.Fprintf(c.Log, format, args...) // diagnostics only; a failed write changes nothing
}

// Output is the deterministic product of one pass: what the
// correctness checks compare between passes, between traced and
// untraced runs, and against the recorded baseline.
type Output struct {
	Digest   string           `json:"digest"`
	Counters map[string]int64 `json:"counters"`
	// Approx holds outputs compared within a stated tolerance.
	Approx map[string]float64 `json:"approx,omitempty"`
}

// Result is a run's verdict and metrics; it marshals to the benchmark's
// one-line JSON report.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	// Output is the first untraced pass's output.
	Output Output `json:"-"`
	// TracedOutput is the first traced pass's output (traced runs).
	TracedOutput Output `json:"-"`
	// Rates are the workload's own throughput figures, from untraced
	// passes.
	Rates map[string]Metric `json:"-"`
	// Problems lists every failed check.
	Problems []string `json:"-"`
}

// pass is one timed pass over the workload's fixed input.
type pass struct {
	wall      float64   // host seconds
	latencies []float64 // per-operation latency, ms
	ops       int64     // operations attempted
	failed    int64     // operations that failed
	out       Output
	// rates are throughput figures over this pass's wall time.
	rates map[string]float64
	// layer holds per-layer figures only a pass can observe.
	layer map[string]float64
}

// workload is one benchmark workload.
type workload interface {
	// setupReps is how many times set-up runs; set-up time is their
	// median.
	setupReps() int
	// setup builds the inputs and the objects a pass runs on.
	setup() error
	// run executes one pass; tr is disabled on untraced passes.
	run(tr *Tracer) (pass, error)
	// singlePass reports whether one pass covers the whole measuring
	// time (the serve schedule).
	singlePass() bool
	// verify runs untimed checks of the program's outputs after the
	// measured passes.
	verify(c *checker)
	// layers fills the traced run's per-layer metrics.
	layers(tr *Tracer, traced, untraced []pass, m map[string]float64) error
	// close releases temporary state.
	close()
}

// checker counts output checks and collects the failed ones.
type checker struct {
	n        int64
	problems []string
}

// expect records one check.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.n++
	if !ok {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// workers is the benchmark's parallelism: one goroutine-backed worker
// per CPU.
func workers() int { return runtime.NumCPU() }

func newWorkload(cfg Config) (workload, error) {
	switch cfg.Workload {
	case "windows":
		return newWindows(cfg), nil
	case "thermal":
		return newThermal(cfg), nil
	case "campaign":
		return newCampaign(cfg)
	case "serve":
		return newServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(Workloads, ", "))
}

// Run executes one benchmark run.
func Run(cfg Config) (*Result, error) {
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("non-positive --seconds %v", cfg.Seconds)
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.OutDir == "" {
		cfg.OutDir = os.TempDir()
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var setups []float64
	for i := 0; i < w.setupReps(); i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// A traced run alternates untraced and traced passes, so that the
	// two sides see the same host conditions and their ratio is the
	// tracing overhead.
	tr := NewTracer(cfg.Trace)
	var untraced, traced []pass
	if cfg.Trace {
		untraced, traced, err = measurePairs(w, tr, cfg.Seconds)
	} else {
		untraced, err = measure(w, tr, cfg.Seconds)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Metrics: map[string]Metric{}, Rates: map[string]Metric{}, Output: untraced[0].out}
	ck := &checker{}
	checkPasses(ck, "untraced", untraced)
	checkBaseline(ck, cfg, untraced[0].out)
	w.verify(ck)
	res.Rates = rates(untraced)

	var ops, failed int64
	for _, p := range untraced {
		ops += p.ops
		failed += p.failed
	}

	if !cfg.Trace {
		var walls []float64
		for _, p := range untraced {
			walls = append(walls, p.wall)
		}
		lats := latencies(untraced)
		res.Metrics["setup_s"] = Metric{median(setups), "s"}
		res.Metrics["wall_s"] = Metric{median(walls), "s"}
		res.Metrics["latency_p50_ms"] = Metric{quantile(lats, 0.5), "ms"}
		res.Metrics["peak_rss_mb"] = Metric{peakRSSMB(), "MB"}
		cfg.logf("%s: %d pass(es), %d latency samples, %d set-up(s)\n", cfg.Workload, len(untraced), len(lats), len(setups))
	} else {
		res.TracedOutput = traced[0].out
		checkPasses(ck, "traced", traced)
		ck.expect(sameOutput(untraced[0].out, traced[0].out), "traced output differs from untraced: %s", diffOutput(untraced[0].out, traced[0].out))
		for _, p := range traced {
			ops += p.ops
			failed += p.failed
		}
		m := map[string]float64{}
		for k, v := range res.Rates {
			m[k] = v.Value
		}
		if err := w.layers(tr, traced, untraced, m); err != nil {
			return nil, err
		}
		m["bench.trace_overhead_pct"] = (medianWall(traced)/medianWall(untraced) - 1) * 100
		m["latency_p95_ms"] = quantile(latencies(untraced), 0.95)
		attempted := ops + ck.n
		m["error_rate"] = float64(failed+int64(len(ck.problems))) / float64(max(attempted, 1))
		for _, d := range PerLayer() {
			res.Metrics[d.Name] = Metric{m[d.Name], d.Unit}
		}
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := WriteTrace(path, tr.Spans()); err != nil {
			return nil, err
		}
		cfg.logf("%s: spans written to %s\n", cfg.Workload, path)
	}

	res.Problems = ck.problems
	res.Attempted = ops + ck.n
	res.Failed = failed + int64(len(ck.problems))
	res.Correct = res.Failed == 0
	res.Rates["error_rate"] = Metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	return res, nil
}

// measure repeats passes until the next one would overrun seconds.
func measure(w workload, tr *Tracer, seconds float64) ([]pass, error) {
	var passes []pass
	t0 := time.Now()
	for {
		p, err := w.run(tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if w.singlePass() || time.Since(t0).Seconds()+medianWall(passes) > seconds {
			return passes, nil
		}
	}
}

// measurePairs alternates an untraced and a traced pass until the
// next pair would overrun twice seconds.
func measurePairs(w workload, tr *Tracer, seconds float64) (untraced, traced []pass, err error) {
	off := NewTracer(false)
	t0 := time.Now()
	for {
		p, err := w.run(off)
		if err != nil {
			return nil, nil, err
		}
		q, err := w.run(tr)
		if err != nil {
			return nil, nil, err
		}
		untraced, traced = append(untraced, p), append(traced, q)
		if w.singlePass() || time.Since(t0).Seconds()+medianWall(untraced)+medianWall(traced) > 2*seconds {
			return untraced, traced, nil
		}
	}
}

// latencies pools the per-operation latencies of every pass.
func latencies(ps []pass) []float64 {
	var lats []float64
	for _, p := range ps {
		lats = append(lats, p.latencies...)
	}
	return lats
}

func medianWall(ps []pass) float64 {
	var walls []float64
	for _, p := range ps {
		walls = append(walls, p.wall)
	}
	return median(walls)
}

// rates takes the median of each pass's throughput figures.
func rates(ps []pass) map[string]Metric {
	units := map[string]string{}
	for _, d := range PerLayer() {
		units[d.Name] = d.Unit
	}
	vals := map[string][]float64{}
	for _, p := range ps {
		for k, v := range p.rates {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]Metric{}
	for k, v := range vals {
		out[k] = Metric{median(v), units[k]}
	}
	return out
}

// checkPasses requires every pass of a run to produce the same output.
func checkPasses(c *checker, label string, ps []pass) {
	for i := 1; i < len(ps); i++ {
		c.expect(sameOutput(ps[0].out, ps[i].out), "%s pass %d output differs from pass 1: %s", label, i+1, diffOutput(ps[0].out, ps[i].out))
	}
}

func sameOutput(a, b Output) bool { return diffOutput(a, b) == "" }

// diffOutput describes how two outputs differ ("" when they match
// exactly).
func diffOutput(a, b Output) string {
	var d []string
	if a.Digest != b.Digest {
		d = append(d, fmt.Sprintf("digest %s vs %s", a.Digest, b.Digest))
	}
	for _, k := range unionKeys(a.Counters, b.Counters) {
		if a.Counters[k] != b.Counters[k] {
			d = append(d, fmt.Sprintf("%s %d vs %d", k, a.Counters[k], b.Counters[k]))
		}
	}
	for _, k := range unionKeys(a.Approx, b.Approx) {
		if a.Approx[k] != b.Approx[k] {
			d = append(d, fmt.Sprintf("%s %v vs %v", k, a.Approx[k], b.Approx[k]))
		}
	}
	return strings.Join(d, "; ")
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		//lint:ignore maporder keys are collected and sorted before use
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// Baseline is the recorded output of the default and held-out seeds at
// full size.
type Baseline struct {
	DefaultSeed int64 `json:"default_seed"`
	HeldOutSeed int64 `json:"held_out_seed"`
	// RunSeconds is the run length serve's outputs were recorded at:
	// its arrival schedule depends on the run length, so serve runs of
	// other lengths skip the comparison. The other workloads' inputs
	// do not depend on it.
	RunSeconds float64 `json:"run_seconds"`
	// Tolerance bounds the Approx outputs (absolute).
	Tolerance map[string]float64 `json:"tolerance"`
	// Workloads maps workload → seed → recorded output.
	Workloads map[string]map[string]Output `json:"workloads"`
}

// LoadBaseline reads a recorded baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// checkBaseline compares a full-size run of a recorded seed with the
// recorded output (serve only at the recorded run length).
func checkBaseline(c *checker, cfg Config, got Output) {
	if cfg.Baseline == nil || cfg.Toy || (cfg.Workload == "serve" && cfg.Seconds != cfg.Baseline.RunSeconds) {
		return
	}
	want, ok := cfg.Baseline.Workloads[cfg.Workload][fmt.Sprint(cfg.Seed)]
	if !ok {
		return
	}
	c.expect(got.Digest == want.Digest, "digest %s, recorded %s", got.Digest, want.Digest)
	for _, k := range unionKeys(got.Counters, want.Counters) {
		c.expect(got.Counters[k] == want.Counters[k], "counter %s = %d, recorded %d", k, got.Counters[k], want.Counters[k])
	}
	for _, k := range unionKeys(got.Approx, want.Approx) {
		tol := cfg.Baseline.Tolerance[k]
		g, wv := got.Approx[k], want.Approx[k]
		c.expect(g >= wv-tol && g <= wv+tol, "%s = %v, recorded %v ± %v", k, g, wv, tol)
	}
}
