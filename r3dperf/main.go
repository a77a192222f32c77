// Command r3dperf is the r3d benchmark. It runs one seeded workload,
// checks the simulator's outputs, and prints one JSON line as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing; with --trace 1 they are the per-layer ones, from a traced
// run that also writes its spans under -out. Build and run it with
// run.sh from the checkout root:
//
//	bash r3dperf/run.sh --workload windows --seed 1 --seconds 20 --trace 0
//
// Workloads: windows, thermal, campaign, serve (see perf.Workloads).
// --print-output prints the run's deterministic output (digest and
// counters) as JSON, the form r3dperf/baseline.json records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"r3d/r3dperf/perf"
)

func main() {
	workload := flag.String("workload", "", "workload to run: windows, thermal, campaign or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	root := flag.String("root", ".", "checkout root (holds r3dperf/baseline.json)")
	out := flag.String("out", ".bench_build/r3dperf", "directory for temporary state and span files")
	printOutput := flag.Bool("print-output", false, "print the deterministic output as JSON on stderr")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	base, err := perf.LoadBaseline(filepath.Join(*root, "r3dperf", "baseline.json"))
	if err != nil {
		fatal(err)
	}
	res, err := perf.Run(perf.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		OutDir:   *out,
		Baseline: base,
		Log:      os.Stderr,
	})
	if err != nil {
		fatal(err)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	if *printOutput {
		body, err := json.MarshalIndent(map[string]perf.Output{fmt.Sprint(*seed): res.Output}, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s\n", body)
	}

	// Human-readable table first: every metric of this run plus the
	// workload's own rates and its error rate.
	fmt.Printf("# r3dperf workload=%s seed=%d trace=%d correct=%v attempted=%d failed=%d\n",
		*workload, *seed, *trace, res.Correct, res.Attempted, res.Failed)
	printTable(res.Metrics)
	if *trace == 0 {
		printTable(res.Rates)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func printTable(ms map[string]perf.Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("#   %-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "r3dperf: %v\n", err)
	os.Exit(1)
}
