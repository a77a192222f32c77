package experiment

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"r3d/internal/floorplan"
	"r3d/internal/noc"
	"r3d/internal/power"
	"r3d/internal/thermal"
)

// ChipModel names the four physical organizations of §3.2/§3.3.
type ChipModel int

// Chip models.
const (
	M2DA ChipModel = iota
	M2D2A
	M3D2A
	M3DChecker
)

// chipModels is the one table of the chip models: each model's name and
// floorplan. Everything else about a model's layout (banks, checker die)
// is read off the floorplan's blocks.
var chipModels = [...]struct {
	name string
	plan func(floorplan.Options) *floorplan.Floorplan
}{
	M2DA:       {"2d-a", func(floorplan.Options) *floorplan.Floorplan { return floorplan.Build2DA() }},
	M2D2A:      {"2d-2a", floorplan.Build2D2A},
	M3D2A:      {"3d-2a", floorplan.Build3D2A},
	M3DChecker: {"3d-checker", floorplan.Build3DChecker},
}

// ParseChipModel resolves a chip-model name (2d-a, 2d-2a, 3d-2a or
// 3d-checker).
func ParseChipModel(name string) (ChipModel, error) {
	for m, e := range chipModels {
		if e.name == name {
			return ChipModel(m), nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown chip model %q", name)
}

func (m ChipModel) valid() bool {
	return m >= 0 && int(m) < len(chipModels)
}

// String names the model; a value outside the table names itself
// chipmodel(N).
func (m ChipModel) String() string {
	if !m.valid() {
		return fmt.Sprintf("chipmodel(%d)", int(m))
	}
	return chipModels[m].name
}

// ThermalCase is one thermal evaluation point.
type ThermalCase struct {
	Model ChipModel
	Opt   floorplan.Options
	// Act is the leading-core activity; L2Rate the per-bank access rate.
	Act    power.Activity
	L2Rate float64
	// CheckerW is the checker-core block power (the swept parameter of
	// Figures 4/5); ignored for M2DA.
	CheckerW float64
	// Scale multiplies every block power (the §3.3 DVFS study).
	Scale float64
	// TopLeakScale scales the static share of top-die banks (Table 8
	// leakage factor for a 90 nm top die).
	TopLeakScale float64
}

// ThermalResult reports the solved temperatures.
type ThermalResult struct {
	PeakC     thermal.Celsius // hottest active-layer cell anywhere
	PeakDie1C thermal.Celsius
	PeakDie2C thermal.Celsius // NaN-free: equals PeakDie1C for 2D models
	// Iters is the fine-grid SOR iteration count; CoarseIters the
	// coarse-grid preconditioner's (0 when the stack is too small to
	// reduce).
	Iters       int
	CoarseIters int
	// Converged is false when the fine solve hit ThermalMaxIters before
	// reaching ThermalTolC: the temperatures are estimates, not a settled
	// field. Each such solve also increments the session's thermal
	// warning counter (Session.ThermalWarnings).
	Converged bool
}

// ThermalStats counts the session's thermal engine traffic.
type ThermalStats struct {
	// Solves is the number of solves that produced a snapshot (cases
	// rejected with an error are not counted); Hits the requests
	// answered from the engine's memo; Joins the requests that waited on
	// another goroutine's in-flight solve of the same case.
	Solves int64 `json:"solves"`
	Hits   int64 `json:"snapshot_hits"`
	Joins  int64 `json:"joins"`
	// FineIters / CoarseIters accumulate SOR iterations across all
	// solves (coarse = the preconditioner passes).
	FineIters   int64 `json:"fine_iters"`
	CoarseIters int64 `json:"coarse_iters"`
}

func (c ThermalCase) norm() ThermalCase {
	//lint:ignore floatcmp zero-value sentinel for an unset field, never a computed value
	if c.Scale == 0 {
		c.Scale = 1
	}
	//lint:ignore floatcmp zero-value sentinel for an unset field, never a computed value
	if c.TopLeakScale == 0 {
		c.TopLeakScale = 1
	}
	//lint:ignore floatcmp zero-value sentinel for an unset field, never a computed value
	if c.Opt.CheckerAreaScale == 0 {
		c.Opt = floorplan.DefaultOptions()
	}
	return c
}

// buildPlan builds and validates the chip model's floorplan.
func buildPlan(m ChipModel, opt floorplan.Options) (*floorplan.Floorplan, error) {
	if !m.valid() {
		return nil, fmt.Errorf("experiment: unknown chip model %v", m)
	}
	fp := chipModels[m].plan(opt)
	return fp, fp.Validate()
}

// thermalKey identifies one thermal solve: the stack geometry plus a
// fingerprint of the exact power grids. A solve is a pure function of
// this key, so the thermal engine memoizes it and computes it once.
type thermalKey struct {
	geom string
	fp   uint64
}

// compareThermalKeys is the thermal engine's canonical order: geometry,
// then grid fingerprint.
func compareThermalKeys(a, b thermalKey) int {
	if c := strings.Compare(a.geom, b.geom); c != 0 {
		return c
	}
	return cmp.Compare(a.fp, b.fp)
}

// thermalSnapshot is one memoized solve: the converged state (for
// heatmaps and probing via SolveThermalDetailed) plus its result row.
// It is immutable once the engine commits it.
type thermalSnapshot struct {
	state *thermal.State
	res   ThermalResult
}

// fingerprintGrids hashes the power grids (with the geometry string) to
// the snapshot key. Row-major over float bits, so any two cases that
// would install identical power maps on an identical stack share a key.
func fingerprintGrids(geom string, grids [][][]float64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(geom))
	var buf [8]byte
	for _, grid := range grids {
		for _, row := range grid {
			for _, v := range row {
				binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
				_, _ = h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// SolveThermal evaluates one thermal case. Each distinct case (geometry
// + power maps) is solved exactly once per session on the thermal
// engine; concurrent requests for the same case join the in-flight
// solve, and independent cases solve concurrently.
func (s *Session) SolveThermal(c ThermalCase) (ThermalResult, error) {
	snap, err := s.thermalSolve(c)
	if err != nil {
		return ThermalResult{}, err
	}
	return snap.res, nil
}

// SolveThermalDetailed is SolveThermal but also returns a private clone
// of the converged state (for heatmaps and further probing; mutating it
// cannot disturb the memoized snapshot).
func (s *Session) SolveThermalDetailed(c ThermalCase) (*thermal.State, ThermalResult, error) {
	snap, err := s.thermalSolve(c)
	if err != nil {
		return nil, ThermalResult{}, err
	}
	return snap.state.Clone(), snap.res, nil
}

// thermalSolve resolves a case through the thermal engine.
func (s *Session) thermalSolve(c ThermalCase) (*thermalSnapshot, error) {
	k, err := s.thermalRequest(c)
	if err != nil {
		return nil, err
	}
	return s.thermalEng.Get(k)
}

// thermalRequest normalizes a case, keys it, and records the case
// behind the key so computeThermal can rebuild its grids. The first
// case recorded for a key is kept: any other case with that key
// installs the same grids.
func (s *Session) thermalRequest(c ThermalCase) (thermalKey, error) {
	c = c.norm()
	fp, err := buildPlan(c.Model, c.Opt)
	if err != nil {
		return thermalKey{}, err
	}
	geom := thermalGeomKey(fp, thermal.GridResolution)
	k := thermalKey{geom: geom, fp: fingerprintGrids(geom, thermalPowerGrids(c, fp, thermal.GridResolution))}
	s.thermalMu.Lock()
	defer s.thermalMu.Unlock()
	if _, ok := s.thermalCases[k]; !ok {
		s.thermalCases[k] = c
	}
	return k, nil
}

// computeThermal is the thermal engine's compute function: one cold
// solve of the case behind k — coarse-grid preconditioner, then the
// parallel fine-grid SOR — on a private state over the shared model.
// An error (a non-physical power map) is a pure function of the grids,
// so the engine memoizes it like a result.
func (s *Session) computeThermal(k thermalKey) (*thermalSnapshot, error) {
	s.thermalMu.Lock()
	c := s.thermalCases[k]
	s.thermalMu.Unlock()
	fp, err := buildPlan(c.Model, c.Opt)
	if err != nil {
		return nil, err
	}
	st := s.thermalModel(fp, thermal.GridResolution).NewState()
	for die, grid := range thermalPowerGrids(c, fp, thermal.GridResolution) {
		if err := st.SetPower(die, grid); err != nil {
			return nil, err
		}
	}
	coarseIters, _ := st.Precondition(s.Q.ThermalTolC, s.Q.ThermalMaxIters)
	iters, converged := st.Solve(s.Q.ThermalTolC, s.Q.ThermalMaxIters)
	if !converged {
		s.thermalWarn.Add(1)
	}
	s.thermalFineIters.Add(int64(iters))
	s.thermalCoarseIters.Add(int64(coarseIters))
	res := ThermalResult{
		PeakC:       st.PeakAllC(),
		PeakDie1C:   st.PeakC(0),
		PeakDie2C:   st.PeakC(0),
		Iters:       iters,
		CoarseIters: coarseIters,
		Converged:   converged,
	}
	if fp.Layers == 2 {
		res.PeakDie2C = st.PeakC(1)
	}
	return &thermalSnapshot{state: st, res: res}, nil
}

// thermalPowerGrids renders a normalized case's per-die power grids at
// res×res (die 1 always; die 2 for stacked models) — a pure function of
// the case. The floorplan's blocks say what is powered where: the
// leading core and L2Bank* on die 1, TopBank* on die 2, and the Checker
// on whichever die the model puts it.
func thermalPowerGrids(c ThermalCase, fp *floorplan.Floorplan, res int) [][][]float64 {
	die1 := power.LeadingCorePower(c.Act, 1, 1)
	//lint:ignore maporder per-key scaling touches each entry exactly once; order-independent
	for k := range die1 {
		die1[k] *= c.Scale
	}
	bank := (power.L2BankPower(c.L2Rate, 1) + noc.RouterPowerW) * c.Scale
	topBank := (power.L2BankPower(c.L2Rate, c.TopLeakScale) + noc.RouterPowerW) * c.Scale
	dies := [2]power.BlockPowers{floorplan.LayerDie1: die1, floorplan.LayerDie2: {}}
	for _, b := range fp.Blocks {
		switch {
		case strings.HasPrefix(b.Name, "L2Bank"):
			dies[b.Layer][b.Name] = bank
		case strings.HasPrefix(b.Name, "TopBank"):
			dies[b.Layer][b.Name] = topBank
		case b.Name == "Checker":
			dies[b.Layer][b.Name] = c.CheckerW * c.Scale
		}
	}

	grids := [][][]float64{fp.PowerGrid(floorplan.LayerDie1, dies[floorplan.LayerDie1], res, res)}
	if fp.Layers == 2 {
		grids = append(grids, fp.PowerGrid(floorplan.LayerDie2, dies[floorplan.LayerDie2], res, res))
	}
	return grids
}

// thermalGeomKey names a stack geometry at a given grid resolution.
func thermalGeomKey(fp *floorplan.Floorplan, res int) string {
	return fmt.Sprintf("%s/%d/%.2fx%.2f/%dx%d", fp.Name, fp.Layers, fp.DieW, fp.DieH, res, res)
}

// stackFor builds the thermal configuration for a floorplan at the
// given grid resolution.
func stackFor(fp *floorplan.Floorplan, res int) thermal.Config {
	var cfg thermal.Config
	if fp.Layers == 2 {
		cfg = thermal.Stack3D(fp.DieW, fp.DieH)
	} else {
		cfg = thermal.Stack2D(fp.DieW, fp.DieH)
	}
	cfg.Nx, cfg.Ny = res, res
	return cfg
}

// thermalModel returns the cached immutable model for a floorplan
// geometry at the given resolution, building it on first use (the DTM
// study reuses steady-state stacks at a coarser transient grid). The
// returned model is safe to use after the lock is released.
func (s *Session) thermalModel(fp *floorplan.Floorplan, res int) *thermal.Model {
	key := thermalGeomKey(fp, res)
	s.thermalMu.Lock()
	defer s.thermalMu.Unlock()
	m, ok := s.models[key]
	if !ok {
		m = thermal.NewModel(stackFor(fp, res))
		s.models[key] = m
	}
	return m
}

// ThermalStats returns the thermal engine's counters.
func (s *Session) ThermalStats() ThermalStats {
	st := s.thermalEng.Stats()
	return ThermalStats{
		Solves:      int64(st.Computed - st.Errors),
		Hits:        int64(st.Hits),
		Joins:       int64(st.Joins),
		FineIters:   s.thermalFineIters.Load(),
		CoarseIters: s.thermalCoarseIters.Load(),
	}
}

// PrefetchThermal solves the given cases across the thermal engine's
// worker pool. Duplicate cases collapse onto one solve, and the engine
// commits in canonical key order, so what it memoizes does not depend
// on worker count or completion order. It returns the first error in
// case order for an unknown chip model, else the engine's first error
// in key order.
func (s *Session) PrefetchThermal(cases []ThermalCase) error {
	keys := make([]thermalKey, len(cases))
	for i, c := range cases {
		k, err := s.thermalRequest(c)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	return s.thermalEng.Prefetch(keys)
}
