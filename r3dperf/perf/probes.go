package perf

import (
	"fmt"
	"math"
	"time"

	"r3d/internal/campaign"
	"r3d/internal/core"
	"r3d/internal/floorplan"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/thermal"
	"r3d/internal/trace"
)

// probeSize sets how much work each layer probe does.
type probeSize struct {
	traceInsts  uint64
	benches     int // profiles the ooo and core probes run
	solves      int
	transientMs float64
	trials      int
}

func probeSizeFor(toy bool) probeSize {
	if toy {
		return probeSize{traceInsts: 20_000, benches: 1, solves: 1, transientMs: 0.02, trials: 2}
	}
	return probeSize{traceInsts: 200_000, benches: 3, solves: 3, transientMs: 0.2, trials: 5}
}

// window is the shape of the simulation windows a workload runs: a
// warm-up and a measured stretch, both simulated from a cold start.
type window struct{ warm, measure uint64 }

// probeLayers measures each layer in isolation, through its public
// API, on the workload's benchmark profiles, and fills the per-layer
// cost metrics. The ooo and core probes simulate windows of the
// workload's shape, so ns per instruction times the workload's
// instructions estimates its simulation time; trial is the campaign
// trial the trial probe repeats.
func probeLayers(tr *Tracer, benches []string, seed int64, shape window, trial campaign.TrialSpec, toy bool, m map[string]float64) error {
	size := probeSizeFor(toy)
	root := tr.Begin("probe", 0, "")
	defer tr.End(root)

	// trace: instruction generation alone.
	var genNs float64
	var genInsts uint64
	sp := tr.Begin("probe.trace", root, "")
	for _, name := range benches {
		b, err := trace.ByName(name)
		if err != nil {
			return err
		}
		g, err := trace.NewGenerator(b.Profile, seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := uint64(0); i < size.traceInsts; i++ {
			g.Next()
		}
		genNs += float64(time.Since(t0).Nanoseconds())
		genInsts += size.traceInsts
	}
	tr.End(sp)
	m["trace.ns_per_inst"] = genNs / float64(genInsts)

	// ooo (with nuca, cache and bpred): a leading-only window.
	windowBenches := benches[:min(len(benches), size.benches)]
	var oooNs float64
	var oooInsts, measured, cycles, l2Acc, l2Miss uint64
	sp = tr.Begin("probe.ooo", root, "")
	for _, name := range windowBenches {
		b, err := trace.ByName(name)
		if err != nil {
			return err
		}
		l2 := nuca.New(nuca.Config2DA(nuca.DistributedSets))
		c, err := ooo.New(ooo.Default(), trace.MustGenerator(b.Profile, seed), l2)
		if err != nil {
			return err
		}
		// The same steps as a session's leading window.
		t0 := time.Now()
		warm := c.Run(shape.warm)
		c.ResetStats()
		c.SetFetchBudget(^uint64(0))
		for c.Stats().Instructions < shape.measure {
			c.Step(ooo.Default().CommitWidth)
		}
		oooNs += float64(time.Since(t0).Nanoseconds())
		st := c.Stats()
		oooInsts += warm.Instructions + st.Instructions
		measured += st.Instructions
		cycles += st.Activity.Cycles
		l2Acc += l2.Stats().Accesses
		l2Miss += l2.Stats().Misses
	}
	tr.End(sp)
	m["ooo.ns_per_inst"] = oooNs / float64(oooInsts)
	m["ooo.ipc"] = float64(measured) / float64(max(cycles, 1))
	m["nuca.l2_accesses"] = float64(l2Acc)
	m["nuca.l2_misses"] = float64(l2Miss)

	// core (with inorder): a coupled RMT window.
	var coreNs float64
	var coreInsts uint64
	sp = tr.Begin("probe.core", root, "")
	for _, name := range windowBenches {
		b, err := trace.ByName(name)
		if err != nil {
			return err
		}
		lead, err := ooo.New(ooo.Default(), trace.MustGenerator(b.Profile, seed), nuca.New(nuca.Config2DA(nuca.DistributedSets)))
		if err != nil {
			return err
		}
		sys, err := core.New(core.Default(ooo.Default()), lead)
		if err != nil {
			return err
		}
		// The same steps as a session's RMT window.
		t0 := time.Now()
		sys.Run(shape.warm)
		sys.ResetStats()
		lead.SetFetchBudget(^uint64(0))
		for lead.Stats().Instructions < shape.measure {
			sys.Step()
		}
		coreNs += float64(time.Since(t0).Nanoseconds())
		coreInsts += shape.warm + lead.Stats().Instructions
	}
	tr.End(sp)
	m["core.ns_per_inst"] = coreNs / float64(coreInsts)
	m["core.checker_share"] = (m["core.ns_per_inst"] - m["ooo.ns_per_inst"]) / m["core.ns_per_inst"] * 100

	// thermal: a cold, preconditioned steady solve of the 3-D stack.
	fp := floorplan.Build3D2A(floorplan.DefaultOptions())
	model := thermal.NewModel(thermal.Stack3D(fp.DieW, fp.DieH))
	var solveMs []float64
	sp = tr.Begin("probe.thermal", root, "")
	for i := 0; i < size.solves; i++ {
		st := model.NewState()
		if err := setUniformPower(st, model.Config(), []float64{45, 15}); err != nil {
			return err
		}
		t0 := time.Now()
		st.Precondition(1e-4, 40_000)
		if _, ok := st.Solve(1e-4, 40_000); !ok {
			return fmt.Errorf("thermal probe: steady solve did not converge")
		}
		solveMs = append(solveMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	tr.End(sp)
	m["thermal.ms_per_solve"] = median(solveMs)

	// thermal transient: the DTM study's 16×16 3-D stack.
	cfg := thermal.Stack3D(fp.DieW, fp.DieH)
	cfg.Nx, cfg.Ny = 16, 16
	tt := thermal.NewTransient(cfg)
	if err := setUniformPower(tt.Solver().State(), cfg, []float64{45, 15}); err != nil {
		return err
	}
	sub := substepsFor(tt.MaxStepPs(), size.transientMs)
	sp = tr.Begin("probe.transient", root, "")
	t0 := time.Now()
	if err := tt.Step(size.transientMs * 1e9); err != nil {
		return err
	}
	elapsed := float64(time.Since(t0).Nanoseconds())
	tr.End(sp)
	cells := len(cfg.Layers) * cfg.Nx * cfg.Ny
	m["thermal.transient_ns_per_cell_update"] = elapsed / float64(sub*int64(cells))
	m["thermal.transient_substeps_per_ms"] = float64(substepsFor(tt.MaxStepPs(), 1))

	// campaign (with fault and ckpt-free): one supervised trial.
	var trialMs []float64
	sp = tr.Begin("probe.campaign_trial", root, "")
	for i := 0; i < size.trials; i++ {
		t0 := time.Now()
		sys, err := campaign.BuildSystem(trial)
		if err != nil {
			return err
		}
		if out := campaign.RunSupervised(sys, trial.Config, campaign.Watchdog{}); out.Status != campaign.StatusOK {
			return fmt.Errorf("campaign probe: trial %s ended %s (%s)", trial.ID, out.Status, out.Reason)
		}
		trialMs = append(trialMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	tr.End(sp)
	m["campaign.trial_ms_p50"] = median(trialMs)
	return nil
}

// substepsFor counts the explicit sub-steps Transient.Step takes to
// cover ms simulated milliseconds at the given stability bound.
func substepsFor(maxStepPs, ms float64) int64 {
	return int64(math.Ceil(ms * 1e9 / maxStepPs))
}

// setUniformPower spreads the given watts evenly over each heat layer.
func setUniformPower(st *thermal.State, cfg thermal.Config, watts []float64) error {
	for die := 0; die < len(st.Model().HeatLayers()) && die < len(watts); die++ {
		per := watts[die] / float64(cfg.Nx*cfg.Ny)
		grid := make([][]float64, cfg.Ny)
		for y := range grid {
			grid[y] = make([]float64, cfg.Nx)
			for x := range grid[y] {
				grid[y][x] = per
			}
		}
		if err := st.SetPower(die, grid); err != nil {
			return err
		}
	}
	return nil
}
