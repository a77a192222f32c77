package perf

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"r3d/internal/dtm"
	"r3d/internal/experiment"
	"r3d/internal/floorplan"
	"r3d/internal/iofault"
	"r3d/internal/noc"
	"r3d/internal/power"
	"r3d/internal/thermal"
)

// thermalW runs the transient DTM study and fresh-session steady 3-D
// renders (fig4/fig5/sec32). The suite-activity windows both need are
// computed during set-up and preloaded into every fresh session, so
// window simulation is absent from the timed pass.
type thermalW struct {
	cfg       Config
	q         experiment.Quality
	horizonMs float64
	rounds    int
	steady    []experiment.Experiment
	// fs holds the activity windows set-up computed, as a session cache.
	fs *iofault.MemFS
	// throttle3D is the 3-D stack at the study's grid, and
	// throttleGrids its suite-average power maps at nominal frequency,
	// for the throttling run.
	throttle3D    *thermal.Model
	throttleGrids [][][]float64
	warnings      int64
	// lastDTM and lastDigest are the last pass's outputs, for verify.
	lastDTM      experiment.DTMStudyResult
	lastThrottle dtm.Stats
	lastDigest   string
	// computed counts windows the current pass's sessions simulated;
	// set-up preloads them all, so it stays 0.
	computed int
}

const thermalCachePath = "activity.ckpt"

// dtmGridRes is the thermal grid DTMStudy runs its chips at.
const dtmGridRes = 16

// throttlePolicy drives the controller's throttle path within the
// study's short horizon. DTMStudy's default policy triggers at 85 °C,
// which the 3-D chip only reaches after about 70 simulated ms; this
// policy triggers below the 3-D chip's 5 ms peak (about 73 °C), samples
// every quarter millisecond and steps the clock by 0.5 GHz, so the run
// engages and releases the throttle several times.
var throttlePolicy = dtm.Policy{TriggerC: 65, ReleaseC: 63, StepGHz: 0.5, MinGHz: 1.0, MaxGHz: 2.0, IntervalMs: 0.25}

func newThermal(cfg Config) *thermalW {
	w := &thermalW{cfg: cfg, q: windowsQuality(cfg.Seed, cfg.Toy), horizonMs: 5, rounds: 2}
	if cfg.Toy {
		w.horizonMs, w.rounds = 0.5, 2
	}
	return w
}

func (w *thermalW) setupReps() int {
	if w.cfg.Toy {
		return 1
	}
	return 3
}

func (w *thermalW) setup() error {
	steady, err := findAll(steadyExperiments)
	if err != nil {
		return err
	}
	dtmExp, err := findAll([]string{"dtm"})
	if err != nil {
		return err
	}
	w.steady = steady
	sess := experiment.NewParallelSession(w.q, workers(), nil)
	if err := sess.Prefetch(experiment.ManifestUnion(w.q, append(dtmExp, steady...))); err != nil {
		return fmt.Errorf("activity windows: %w", err)
	}
	w.fs = iofault.NewMemFS()
	if _, err := sess.SaveCacheTo(w.fs, thermalCachePath); err != nil {
		return err
	}
	act, rate6, err := sess.SuiteActivity(experiment.L2DA)
	if err != nil {
		return err
	}
	w.throttle3D, w.throttleGrids = stack3DPower(act, rate6)
	return nil
}

// stack3DPower builds the 3-D chip's thermal model at the study's grid
// and its power maps as DTMStudy lays them out: the leading core and
// six L2 banks on die 1, nine banks and the pessimistic checker on
// die 2.
func stack3DPower(act power.Activity, rate6 float64) (*thermal.Model, [][][]float64) {
	fp := floorplan.Build3D2A(floorplan.DefaultOptions())
	bank := power.L2BankPower(rate6*6/15, 1) + noc.RouterPowerW
	die1 := power.LeadingCorePower(act, 1, 1)
	for i := 0; i < 6; i++ {
		die1[fmt.Sprintf("L2Bank%d", i)] = bank
	}
	die2 := power.BlockPowers{"Checker": power.CheckerPessimisticW}
	for i := 0; i < 9; i++ {
		die2[fmt.Sprintf("TopBank%d", i)] = bank
	}
	cfg := thermal.Stack3D(fp.DieW, fp.DieH)
	cfg.Nx, cfg.Ny = dtmGridRes, dtmGridRes
	return thermal.NewModel(cfg), [][][]float64{
		fp.PowerGrid(floorplan.LayerDie1, die1, dtmGridRes, dtmGridRes),
		fp.PowerGrid(floorplan.LayerDie2, die2, dtmGridRes, dtmGridRes),
	}
}

// throttleRun holds the 3-D chip's power maps for the study's horizon
// under throttlePolicy.
func (w *thermalW) throttleRun() (dtm.Stats, error) {
	ctl, err := dtm.NewFromModel(w.throttle3D, throttlePolicy)
	if err != nil {
		return dtm.Stats{}, err
	}
	if err := ctl.RunPhase(dtm.Phase{DurationMs: w.horizonMs, Grids: w.throttleGrids}); err != nil {
		return dtm.Stats{}, err
	}
	return ctl.Stats(), nil
}

// fresh returns a new session preloaded with the set-up windows.
func (w *thermalW) fresh(workers int) (*experiment.Session, error) {
	s := experiment.NewParallelSession(w.q, workers, nil)
	n, notes, err := s.LoadCacheFrom(w.fs, thermalCachePath)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("activity cache empty: %v", notes)
	}
	return s, nil
}

func (w *thermalW) singlePass() bool { return false }

func (w *thermalW) run(tr *Tracer) (pass, error) {
	p := pass{rates: map[string]float64{}}
	w.computed = 0
	t0 := time.Now()
	root := tr.Begin("thermal.pass", 0, "")

	s, err := w.fresh(workers())
	if err != nil {
		return pass{}, err
	}
	sp := tr.Begin("dtm.study", root, "")
	d0 := time.Now()
	d, err := experiment.DTMStudy(s, w.horizonMs)
	dtmS := time.Since(d0).Seconds()
	tr.End(sp)
	p.ops++
	if err != nil {
		return pass{}, fmt.Errorf("DTM study: %w", err)
	}
	w.computed += s.EngineStats().Computed
	sp = tr.Begin("dtm.throttle", root, "")
	t0Thr := time.Now()
	thr, err := w.throttleRun()
	dtmS += time.Since(t0Thr).Seconds()
	tr.End(sp)
	p.ops++
	if err != nil {
		return pass{}, fmt.Errorf("DTM throttle run: %w", err)
	}

	// Steady renders: each round renders fig4, fig5 and sec32 on a
	// fresh session and is one operation; every round must render the
	// same bytes.
	var steadyS float64
	var th experiment.ThermalStats
	for r := 0; r < w.rounds; r++ {
		r0 := time.Now()
		digest, stats, err := w.steadyRound(tr, root, workers())
		dt := time.Since(r0)
		p.ops++
		steadyS += dt.Seconds()
		p.latencies = append(p.latencies, float64(dt.Nanoseconds())/1e6)
		switch {
		case err != nil:
			p.failed++
			w.cfg.logf("thermal: %v\n", err)
		case r == 0:
			p.out.Digest, th = digest, stats
		case digest != p.out.Digest:
			p.failed++
			w.cfg.logf("thermal: steady round %d rendered different bytes\n", r+1)
		}
	}
	tr.End(root)
	p.wall = time.Since(t0).Seconds()

	p.out = Output{
		Digest: p.out.Digest,
		Counters: map[string]int64{
			"thermal.solves":             th.Solves,
			"thermal.snapshot_hits":      th.Hits,
			"thermal.fine_iters":         th.FineIters,
			"thermal.coarse_iters":       th.CoarseIters,
			"dtm.interventions":          int64(d.Interventions3D),
			"dtm.throttle_interventions": int64(thr.Interventions),
			"runsched.computed":          int64(w.computed),
		},
		Approx: map[string]float64{
			"dtm.peak_3d_c":         float64(d.Peak3DC),
			"dtm.peak_2d_c":         float64(d.Peak2DAC),
			"dtm.loss_3d_pct":       d.Loss3DPct,
			"dtm.loss_2d_pct":       d.Loss2DAPct,
			"dtm.throttle_peak_c":   float64(thr.PeakC),
			"dtm.throttle_loss_pct": thr.PerfLossPct(throttlePolicy.MaxGHz),
		},
	}
	p.rates["thermal_sim_ms_per_s"] = 3 * w.horizonMs / dtmS
	p.rates["steady_solves_per_s"] = float64(th.Solves) * float64(w.rounds) / steadyS
	w.lastDTM, w.lastThrottle, w.lastDigest = d, thr, p.out.Digest
	return p, nil
}

// steadyRound renders the steady experiments on a fresh session with
// the given worker count and returns the digest of the rendered bytes
// and the session's thermal counters.
func (w *thermalW) steadyRound(tr *Tracer, root int64, wk int) (string, experiment.ThermalStats, error) {
	s, err := w.fresh(wk)
	if err != nil {
		return "", experiment.ThermalStats{}, err
	}
	h := sha256.New()
	for _, e := range w.steady {
		sp := tr.Begin("experiment.render."+e.Name, root, "")
		res, err := e.Run(s, wk)
		tr.End(sp)
		if err != nil {
			return "", experiment.ThermalStats{}, fmt.Errorf("%s: %w", e.Name, err)
		}
		_, _ = io.WriteString(h, e.Name+"\n"+res.String()+"\n") // hash writes cannot fail
	}
	w.warnings += s.ThermalWarnings()
	w.computed += s.EngineStats().Computed
	return fmt.Sprintf("%x", h.Sum(nil)), s.ThermalStats(), nil
}

// verify renders the steady experiments once more on one worker, which
// must reproduce the parallel rounds byte for byte, and checks the DTM
// study's physics: the stacked chip runs hotter than the planar one,
// both above ambient, and losses are percentages. At full size the
// throttling run must cross its trigger, engage the throttle and lose
// some performance.
func (w *thermalW) verify(c *checker) {
	c.expect(w.warnings == 0, "thermal: %d steady solve(s) hit the iteration cap", w.warnings)
	digest, _, err := w.steadyRound(NewTracer(false), 0, 1)
	c.expect(err == nil && digest == w.lastDigest, "thermal: serial steady round differs from the parallel ones (%v)", err)
	d := w.lastDTM
	amb := float64(thermal.AmbientC)
	c.expect(float64(d.Peak2DAC) > amb && float64(d.Peak3DC) > float64(d.Peak2DAC),
		"thermal: DTM peaks out of order: ambient %.1f, 2d-a %.2f, 3d-2a %.2f", amb, d.Peak2DAC, d.Peak3DC)
	c.expect(d.Loss3DPct >= 0 && d.Loss3DPct <= 100 && d.Loss2DAPct >= 0 && d.Loss2DAPct <= 100,
		"thermal: DTM losses out of range: %v, %v", d.Loss2DAPct, d.Loss3DPct)
	t := w.lastThrottle
	loss := t.PerfLossPct(throttlePolicy.MaxGHz)
	w.cfg.logf("thermal: throttle run: peak %.2f °C, %d interventions, throttled %.2f ms, loss %.3f%%\n", t.PeakC, t.Interventions, t.ThrottledMs, loss)
	if !w.cfg.Toy {
		c.expect(t.PeakC > throttlePolicy.TriggerC && t.Interventions > 0 && loss > 0 && loss < 100,
			"thermal: throttling run did not throttle: peak %.2f °C, %d interventions, loss %v", t.PeakC, t.Interventions, loss)
	}
}

func (w *thermalW) layers(tr *Tracer, traced, untraced []pass, m map[string]float64) error {
	sum := Summarize(tr.Spans())
	n := float64(len(traced))
	for _, e := range w.steady {
		m["experiment.render_s."+e.Name] = TotalMS(sum, "experiment.render."+e.Name) / 1e3 / n
	}
	c := traced[0].out.Counters
	m["thermal.solves"] = float64(c["thermal.solves"])
	m["thermal.snapshot_hits"] = float64(c["thermal.snapshot_hits"])
	m["thermal.fine_iters"] = float64(c["thermal.fine_iters"])
	m["thermal.coarse_iters"] = float64(c["thermal.coarse_iters"])
	m["runsched.computed"] = float64(c["runsched.computed"])
	m["dtm.study_s"] = TotalMS(sum, "dtm.study") / 1e3 / n
	m["dtm.throttle_s"] = TotalMS(sum, "dtm.throttle") / 1e3 / n
	m["dtm.throttle_interventions"] = float64(c["dtm.throttle_interventions"])
	m["dtm.interventions"] = float64(c["dtm.interventions"])
	m["dtm.peak_3d_c"] = traced[0].out.Approx["dtm.peak_3d_c"]
	if err := probeLayers(tr, w.q.Benchmarks, w.q.Seed, window{w.q.WarmupInsts, w.q.MeasureInsts}, defaultTrial(w.cfg.Toy), w.cfg.Toy, m); err != nil {
		return err
	}
	wall := medianWall(traced)
	steadyMs := m["thermal.solves"] * float64(w.rounds) * m["thermal.ms_per_solve"]
	dtmS := m["dtm.study_s"] + m["dtm.throttle_s"]
	m["bench.thermal_share_of_wall"] = (steadyMs/1e3 + dtmS) / wall * 100
	m["bench.dtm_share_of_wall"] = dtmS / wall * 100
	return nil
}

func (w *thermalW) close() {}
