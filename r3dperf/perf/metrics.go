package perf

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MetricDef names a metric and fixes its unit.
type MetricDef struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics an untraced run reports on every
// workload. Each is measured with tracing off and is never zero.
//
//   - setup_s: median time to build a workload's inputs and objects.
//   - wall_s: median host seconds of one pass over the fixed input.
//   - latency_p50_ms: median latency of one operation: a simulation
//     window (windows), a fresh-session steady render round (thermal),
//     a trial (campaign), or submit-to-result of a request at the
//     lowest arrival rate, timed from its scheduled send (serve).
//   - peak_rss_mb: the process's resident-set high-water mark.
//
// The 95th percentile of the same latencies is a per-layer metric: on a
// shared two-CPU host it moves too much from run to run to gate.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// Workloads lists the benchmark's workloads in the order they are
// documented.
var Workloads = []string{"windows", "thermal", "campaign", "serve"}

// windowExperiments are the registry experiments the windows workload
// renders: everything except the DTM study, the injection study and
// the steady-thermal sweeps.
var windowExperiments = []string{
	"table2", "table4", "table5", "table6", "table7", "table8",
	"fig6", "fig7", "fig8", "fig9",
	"sec33", "sec34", "sec35", "sec4",
	"dfs", "degraded", "rvqsize",
}

// steadyExperiments are the steady 3-D thermal renders of the thermal
// workload.
var steadyExperiments = []string{"fig4", "fig5", "sec32"}

// serveRates are the fixed arrival rates of the serve workload's steps,
// in requests per second, lowest first. With two job workers the daemon
// saturates between 45 and 75 rps on a 2-CPU x86-64 host (about 30 ms
// of service per fresh request, with the client and the persister on
// the same CPUs): 20 rps runs well below the knee, 40 below it, and 80
// beyond it, where the backlog grows and the step fails. Three steps
// over a 20 s run give each step over 200 requests, so each step's
// p95 has at least ten samples beyond it.
var serveRates = []float64{20, 40, 80}

// PerLayer lists the metrics a traced run reports on every workload. A
// layer the workload does not exercise reports 0.
func PerLayer() []MetricDef {
	defs := []MetricDef{
		{"latency_p95_ms", "ms"},
		{"trace.ns_per_inst", "ns"},
		{"ooo.ns_per_inst", "ns"},
		{"ooo.sim_cycles", "count"},
		{"ooo.ipc", "inst/cycle"},
		{"nuca.l2_accesses", "count"},
		{"nuca.l2_misses", "count"},
		{"core.ns_per_inst", "ns"},
		{"core.checker_share", "%"},
		{"runsched.prefetch_s", "s"},
		{"runsched.busy_s", "s"},
		{"runsched.worker_util", "%"},
		{"runsched.computed", "count"},
		{"runsched.cache_hits", "count"},
		{"runsched.joins", "count"},
		{"runsched.batch_deduped", "count"},
	}
	names := append(append([]string{}, windowExperiments...), steadyExperiments...)
	for _, n := range names {
		defs = append(defs, MetricDef{"experiment.render_s." + n, "s"})
	}
	defs = append(defs, []MetricDef{
		{"experiment.ondemand_windows", "count"},
		{"thermal.ms_per_solve", "ms"},
		{"thermal.solves", "count"},
		{"thermal.snapshot_hits", "count"},
		{"thermal.fine_iters", "count"},
		{"thermal.coarse_iters", "count"},
		{"dtm.study_s", "s"},
		{"dtm.throttle_s", "s"},
		{"thermal.transient_substeps_per_ms", "count"},
		{"thermal.transient_ns_per_cell_update", "ns"},
		{"dtm.interventions", "count"},
		{"dtm.throttle_interventions", "count"},
		{"dtm.peak_3d_c", "degC"},
		{"campaign.trial_ms_p50", "ms"},
		{"campaign.persist_s", "s"},
		{"campaign.trials", "count"},
		{"campaign.attempts", "count"},
		{"campaign.hung", "count"},
		{"campaign.crashed", "count"},
		{"campaign.journal_bytes", "bytes"},
		{"serve.handler_us", "us"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.compute_ms", "ms"},
		{"serve.sched_lag_ms", "ms"},
		{"serve.accepted", "count"},
		{"serve.joined_inflight", "count"},
		{"serve.joined_done", "count"},
		{"serve.rejected_queue", "count"},
		{"serve.completed", "count"},
		{"serve.failed", "count"},
		{"serve.join_ratio", "%"},
	}...)
	for _, r := range serveRates {
		defs = append(defs, MetricDef{"serve.latency_p95_ms.r" + strconv.FormatFloat(r, 'f', -1, 64), "ms"})
	}
	defs = append(defs, []MetricDef{
		{"sim_kinst_per_s", "kinst/s"},
		{"thermal_sim_ms_per_s", "ms/s"},
		{"steady_solves_per_s", "1/s"},
		{"trials_per_s", "1/s"},
		{"slo_rate_rps", "1/s"},
		{"error_rate", "ratio"},
		{"bench.sim_share_of_busy", "%"},
		{"bench.thermal_share_of_wall", "%"},
		{"bench.dtm_share_of_wall", "%"},
		{"bench.window_share_of_wall", "%"},
		{"bench.trial_share_of_wall", "%"},
		{"bench.trace_overhead_pct", "%"},
	}...)
	return defs
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc; 0 when it is unavailable.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "VmHWM:" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
