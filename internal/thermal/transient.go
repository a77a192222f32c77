package thermal

import (
	"fmt"
	"math"
)

// Volumetric heat capacities in J/(m³·K) for the transient model
// (HotSpot's constants: silicon ≈ 1.75e6, copper ≈ 3.55e6; the composite
// metal/ILD and d2d layers sit between).
const (
	SiHeatCapacity    = 1.75e6
	CuHeatCapacity    = 3.55e6
	MetalHeatCapacity = 2.5e6
	D2DHeatCapacity   = 2.0e6
)

// capacityFor maps a layer to its volumetric heat capacity by material
// (matched on resistivity, which identifies the material in this model).
func capacityFor(l Layer) float64 {
	switch l.Resistivity {
	case SiResistivity:
		return SiHeatCapacity
	case CuResistivity:
		return MetalHeatCapacity
	case D2DResistivity:
		return D2DHeatCapacity
	case CuPlateResistivity:
		return CuHeatCapacity
	default:
		return SiHeatCapacity
	}
}

// Transient wraps a Model and State with per-cell thermal capacitance
// and an explicit time-stepping integrator, for DTM studies where
// temperature chases a time-varying power map (the paper invokes DTM as
// the alternative to over-provisioned cooling in §3.2).
type Transient struct {
	m  *Model
	st *State
	// capJ is each cell's heat capacity in joules per kelvin.
	capJ []float64
	// maxStablePs is the largest stable explicit-Euler step.
	maxStablePs float64
	timePs      float64
	scratch     []float64
}

// NewTransient builds a transient integrator over a fresh model for the
// given stack.
func NewTransient(cfg Config) *Transient { return NewTransientFromModel(NewModel(cfg)) }

// NewTransientFromModel builds a transient integrator sharing an
// existing immutable model, so repeated DTM runs over the same stack
// skip the conductance precompute. The integrator owns a fresh state.
func NewTransientFromModel(m *Model) *Transient {
	cfg := m.cfg
	st := m.NewState()
	t := &Transient{m: m, st: st}
	cellWm := cfg.DieWmm / float64(cfg.Nx) * 1e-3
	cellHm := cfg.DieHmm / float64(cfg.Ny) * 1e-3
	t.capJ = make([]float64, len(st.temp))
	minTau := math.Inf(1)
	for l := 0; l < m.nl; l++ {
		vol := cellWm * cellHm * cfg.Layers[l].ThicknessUm * 1e-6
		c := capacityFor(cfg.Layers[l]) * vol
		// Total conductance bound for the stability estimate.
		g := 4 * m.gLat[l]
		if l > 0 {
			g += m.gUp[l-1]
		} else {
			g += m.gSink
		}
		if l < m.nl-1 {
			g += m.gUp[l]
		} else {
			g += m.gPack
		}
		if tau := c / g; tau < minTau {
			minTau = tau
		}
		for y := 0; y < m.ny; y++ {
			for x := 0; x < m.nx; x++ {
				t.capJ[m.idx(l, y, x)] = c
			}
		}
	}
	// Explicit Euler is stable below ~2·τ_min; keep a 4× margin.
	t.maxStablePs = minTau / 2 * 1e12
	t.scratch = make([]float64, len(st.temp))
	return t
}

// State returns the integrator's state (power maps, temperature
// readout).
func (t *Transient) State() *State { return t.st }

// Solver returns the integrator's model and state as a Solver.
func (t *Transient) Solver() *Solver { return &Solver{m: t.m, st: t.st} }

// TimePs returns the integrated simulation time.
func (t *Transient) TimePs() float64 { return t.timePs }

// MaxStepPs returns the largest allowed integration step.
func (t *Transient) MaxStepPs() float64 { return t.maxStablePs }

// Step advances the temperature field by dtPs picoseconds using
// explicit Euler, internally sub-stepping to stay within the stability
// bound. It returns an error for non-positive steps.
func (t *Transient) Step(dtPs float64) error {
	if dtPs <= 0 {
		return fmt.Errorf("thermal: non-positive step %v", dtPs)
	}
	m, st := t.m, t.st
	remaining := dtPs
	for remaining > 0 {
		h := remaining
		if h > t.maxStablePs {
			h = t.maxStablePs
		}
		remaining -= h
		hSec := h * 1e-12
		// One explicit update: dT = (P − Σ G·(T−T_neighbor)) · h / C.
		next := t.scratch
		for l := 0; l < m.nl; l++ {
			for y := 0; y < m.ny; y++ {
				for x := 0; x < m.nx; x++ {
					i := m.idx(l, y, x)
					ti := st.temp[i]
					var flow float64
					if l > 0 {
						flow += m.gUp[l-1] * (st.temp[m.idx(l-1, y, x)] - ti)
					} else {
						flow += m.gSink * (m.ambient - ti)
					}
					if l < m.nl-1 {
						flow += m.gUp[l] * (st.temp[m.idx(l+1, y, x)] - ti)
					} else {
						flow += m.gPack * (m.ambient - ti)
					}
					gl := m.gLat[l]
					if x > 0 {
						flow += gl * (st.temp[i-1] - ti)
					}
					if x < m.nx-1 {
						flow += gl * (st.temp[i+1] - ti)
					}
					if y > 0 {
						flow += gl * (st.temp[i-m.nx] - ti)
					}
					if y < m.ny-1 {
						flow += gl * (st.temp[i+m.nx] - ti)
					}
					next[i] = ti + (flow+st.power[i])*hSec/t.capJ[i]
				}
			}
		}
		st.temp, t.scratch = next, st.temp
		t.timePs += h
	}
	return nil
}
