package perf

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"time"

	"r3d/internal/experiment"
	"r3d/internal/nuca"
)

// windows renders every window-driven registry experiment on a fresh
// Fast-quality session: trace → NUCA → OoO → RMT windows, prefetched
// across the runsched pool, then the serial on-demand tail of the
// renders.
type windows struct {
	cfg  Config
	q    experiment.Quality
	sel  []experiment.Experiment
	keys []experiment.RunKey
	// sess is the fresh session the next pass renders on.
	sess *experiment.Session
	// last is the session of the last pass, kept for verify.
	last *experiment.Session
}

func newWindows(cfg Config) *windows { return &windows{cfg: cfg} }

// windowsQuality is experiment.Fast() with the run's seed; the toy size
// shrinks the windows and the suite.
func windowsQuality(seed int64, toy bool) experiment.Quality {
	q := experiment.Fast()
	if toy {
		q.WarmupInsts, q.MeasureInsts = 4_000, 8_000
		q.Benchmarks = []string{"gzip", "mcf"}
	}
	q.Seed = seed
	return q
}

// findAll resolves registry experiments by name.
func findAll(names []string) ([]experiment.Experiment, error) {
	var out []experiment.Experiment
	for _, n := range names {
		e, ok := experiment.Find(n)
		if !ok {
			return nil, fmt.Errorf("registry has no experiment %q", n)
		}
		out = append(out, e)
	}
	return out, nil
}

// engineClock feeds the run engine's per-window timings.
func engineClock() func() int64 {
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}

func (w *windows) setupReps() int { return 200 }

func (w *windows) setup() error {
	w.q = windowsQuality(w.cfg.Seed, w.cfg.Toy)
	sel, err := findAll(windowExperiments)
	if err != nil {
		return err
	}
	w.sel = sel
	w.keys = experiment.ManifestUnion(w.q, sel)
	w.sess = experiment.NewSessionWith(w.q, experiment.SessionOptions{Workers: workers(), Clock: engineClock()})
	return nil
}

func (w *windows) singlePass() bool { return false }

func (w *windows) run(tr *Tracer) (pass, error) {
	if w.sess == nil {
		if err := w.setup(); err != nil {
			return pass{}, err
		}
	}
	sess := w.sess
	w.sess, w.last = nil, sess

	p := pass{layer: map[string]float64{}, rates: map[string]float64{}}
	t0 := time.Now()
	root := tr.Begin("windows.pass", 0, "")
	sp := tr.Begin("runsched.prefetch", root, "")
	if err := sess.Prefetch(w.keys); err != nil {
		return pass{}, fmt.Errorf("prefetch: %w", err)
	}
	tr.End(sp)
	afterPrefetch := sess.EngineStats()
	prefetched := afterPrefetch.Computed
	h := sha256.New()
	for _, e := range w.sel {
		sp := tr.Begin("experiment.render."+e.Name, root, "")
		r, err := e.Run(sess, workers())
		tr.End(sp)
		p.ops++
		if err != nil {
			p.failed++
			w.cfg.logf("windows: %s: %v\n", e.Name, err)
			continue
		}
		_, _ = io.WriteString(h, e.Name+"\n"+r.String()+"\n") // hash writes cannot fail
	}
	tr.End(root)
	p.wall = time.Since(t0).Seconds()

	st := sess.EngineStats()
	th := sess.ThermalStats()
	rep := sess.EngineReport()
	var cycles uint64
	var leadWindows, rmtWindows int
	for _, r := range rep.Runs {
		p.latencies = append(p.latencies, r.WallMS)
		cycles += r.SimCycles
		if strings.HasPrefix(r.Key, "lead/") {
			leadWindows++
		} else {
			rmtWindows++
		}
	}
	p.ops += int64(st.Computed)
	p.failed += int64(st.Errors)
	p.out = Output{
		Digest: fmt.Sprintf("%x", h.Sum(nil)),
		Counters: map[string]int64{
			"runsched.computed":        int64(st.Computed),
			"runsched.prefetched":      int64(prefetched),
			"runsched.batch_requested": int64(st.BatchRequested),
			"runsched.batch_deduped":   int64(st.BatchDeduped),
			"runsched.cache_hits":      int64(st.Hits),
			"ooo.sim_cycles":           int64(cycles),
			"thermal.solves":           th.Solves,
			"thermal.fine_iters":       th.FineIters,
			"thermal.coarse_iters":     th.CoarseIters,
			"thermal.warnings":         sess.ThermalWarnings(),
		},
	}
	insts := float64(leadWindows+rmtWindows) * float64(w.q.WarmupInsts+w.q.MeasureInsts)
	p.rates["sim_kinst_per_s"] = insts / 1e3 / p.wall
	p.rates["steady_solves_per_s"] = float64(th.Solves) / p.wall
	p.layer["busy_s"] = float64(st.ComputeNanos) / 1e9
	p.layer["busy_prefetch_s"] = float64(afterPrefetch.ComputeNanos) / 1e9
	p.layer["joins"] = float64(st.Joins)
	p.layer["snapshot_hits"] = float64(th.Hits)
	p.layer["lead_insts"] = float64(leadWindows) * float64(w.q.WarmupInsts+w.q.MeasureInsts)
	p.layer["rmt_insts"] = float64(rmtWindows) * float64(w.q.WarmupInsts+w.q.MeasureInsts)
	return p, nil
}

// verify recomputes one seed-chosen leading window from scratch on a
// serial session and requires the parallel pass's cached copy to match
// it exactly.
func (w *windows) verify(c *checker) {
	if w.last == nil {
		return
	}
	suite := w.q.Suite()
	bench := suite[int(uint64(w.cfg.Seed)%uint64(len(suite)))].Profile.Name
	want, err := experiment.NewSession(w.q).Leading(bench, experiment.L2DA, nuca.DistributedSets, 0)
	c.expect(err == nil, "windows: recompute %s: %v", bench, err)
	got, err := w.last.Leading(bench, experiment.L2DA, nuca.DistributedSets, 0)
	c.expect(err == nil, "windows: cached %s: %v", bench, err)
	c.expect(fmt.Sprintf("%+v", got) == fmt.Sprintf("%+v", want), "windows: cached %s window differs from a serial recomputation", bench)
}

func (w *windows) layers(tr *Tracer, traced, untraced []pass, m map[string]float64) error {
	sum := Summarize(tr.Spans())
	n := float64(len(traced))
	for _, e := range w.sel {
		m["experiment.render_s."+e.Name] = TotalMS(sum, "experiment.render."+e.Name) / 1e3 / n
	}
	p := traced[0]
	c := p.out.Counters
	m["runsched.prefetch_s"] = TotalMS(sum, "runsched.prefetch") / 1e3 / n
	m["runsched.busy_s"] = p.layer["busy_s"]
	m["runsched.worker_util"] = p.layer["busy_prefetch_s"] / (m["runsched.prefetch_s"] * float64(workers())) * 100
	m["runsched.computed"] = float64(c["runsched.computed"])
	m["runsched.cache_hits"] = float64(c["runsched.cache_hits"])
	m["runsched.joins"] = p.layer["joins"]
	m["runsched.batch_deduped"] = float64(c["runsched.batch_deduped"])
	m["experiment.ondemand_windows"] = float64(c["runsched.computed"] - c["runsched.prefetched"])
	m["thermal.solves"] = float64(c["thermal.solves"])
	m["thermal.snapshot_hits"] = p.layer["snapshot_hits"]
	m["thermal.fine_iters"] = float64(c["thermal.fine_iters"])
	m["thermal.coarse_iters"] = float64(c["thermal.coarse_iters"])
	if err := probeLayers(tr, w.q.Benchmarks, w.q.Seed, window{w.q.WarmupInsts, w.q.MeasureInsts}, defaultTrial(w.cfg.Toy), w.cfg.Toy, m); err != nil {
		return err
	}
	m["ooo.sim_cycles"] = float64(c["ooo.sim_cycles"])
	wall := medianWall(traced)
	simNs := p.layer["lead_insts"]*m["ooo.ns_per_inst"] + p.layer["rmt_insts"]*m["core.ns_per_inst"]
	m["bench.sim_share_of_busy"] = simNs / 1e9 / m["runsched.busy_s"] * 100
	m["bench.thermal_share_of_wall"] = m["thermal.solves"] * m["thermal.ms_per_solve"] / 1e3 / wall * 100
	m["bench.window_share_of_wall"] = m["runsched.busy_s"] / (wall * float64(workers())) * 100
	return nil
}

func (w *windows) close() {}
