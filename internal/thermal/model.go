package thermal

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// omega is the SOR over-relaxation factor shared by every sweep.
const omega = 1.85

// coarseFactor is the grid-reduction factor of the multigrid-style
// preconditioner: a 50×50 fine grid is preconditioned by a 10×10 coarse
// solve of the same layer stack.
const coarseFactor = 5

// Model is the immutable half of the solver: geometry, conductances,
// heat-layer indices, the ambient boundary — plus a coarse-grid
// companion model for the preconditioner. A Model is safe to share
// between any number of concurrent solves: all mutable per-solve data
// (temperature and power fields) lives in State values created by
// NewState.
type Model struct {
	cfg Config
	nl  int // layers
	nx  int
	ny  int

	// conductances (W/K)
	gUp   []float64 // per layer: vertical conductance to the layer above
	gLat  []float64 // per layer: lateral conductance to each neighbour
	gSink float64   // per bottom cell
	gPack float64   // per top cell

	// ambient mirrors cfg.AmbientC as a raw float64 so the inner solver
	// loops stay conversion-free.
	ambient float64

	heatLayers []int

	// coarse is the reduced-resolution companion stack used by
	// Precondition (nil when the grid is too small to reduce).
	coarse *Model
}

// NewModel precomputes the immutable solver structure for a stack; it
// panics on invalid configuration.
func NewModel(cfg Config) *Model {
	return newModel(cfg, true)
}

func newModel(cfg Config, withCoarse bool) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{cfg: cfg, nl: len(cfg.Layers), nx: cfg.Nx, ny: cfg.Ny, ambient: float64(cfg.AmbientC)}

	cellWm := cfg.DieWmm / float64(cfg.Nx) * 1e-3 // m
	cellHm := cfg.DieHmm / float64(cfg.Ny) * 1e-3
	cellArea := cellWm * cellHm

	// Vertical conductance between layer l and l+1: series of half
	// thicknesses.
	m.gUp = make([]float64, m.nl)
	for l := 0; l < m.nl-1; l++ {
		r1 := cfg.Layers[l].Resistivity * (cfg.Layers[l].ThicknessUm * 1e-6 / 2) / cellArea
		r2 := cfg.Layers[l+1].Resistivity * (cfg.Layers[l+1].ThicknessUm * 1e-6 / 2) / cellArea
		m.gUp[l] = 1 / (r1 + r2)
	}

	// Lateral conductance within layer l between adjacent cells:
	// G = A_cross / (ρ · pitch); width-direction neighbours see cross
	// section t×cellH over distance cellW (and vice versa). Cells are
	// near-square; use the geometric mean pitch for both directions.
	m.gLat = make([]float64, m.nl)
	for l := 0; l < m.nl; l++ {
		t := cfg.Layers[l].ThicknessUm * 1e-6
		pitch := math.Sqrt(cellWm * cellHm)
		m.gLat[l] = t * pitch / (cfg.Layers[l].Resistivity * pitch)
	}

	// Boundary couplings include the half-thickness of the boundary
	// layer (cell temperatures live at layer centers).
	ncells := float64(m.nx * m.ny)
	rHalfBot := cfg.Layers[0].Resistivity * (cfg.Layers[0].ThicknessUm * 1e-6 / 2) / cellArea
	rHalfTop := cfg.Layers[m.nl-1].Resistivity * (cfg.Layers[m.nl-1].ThicknessUm * 1e-6 / 2) / cellArea
	m.gSink = 1 / (cfg.SinkResistanceKperW*ncells + rHalfBot)
	m.gPack = 1 / (cfg.PackageResistanceKperW*ncells + rHalfTop)

	for l, ly := range cfg.Layers {
		if ly.Heat {
			m.heatLayers = append(m.heatLayers, l)
		}
	}

	// The coarse companion keeps the full layer stack (the vertical
	// dimension is where the physics lives) and divides the lateral
	// resolution. It needs at least a 2×2 coarse grid for the bilinear
	// prolongation; below that the preconditioner is a no-op.
	if withCoarse {
		nxc, nyc := (cfg.Nx+coarseFactor-1)/coarseFactor, (cfg.Ny+coarseFactor-1)/coarseFactor
		if nxc >= 2 && nyc >= 2 {
			ccfg := cfg
			ccfg.Nx, ccfg.Ny = nxc, nyc
			m.coarse = newModel(ccfg, false)
		}
	}
	return m
}

// Config returns the stack configuration the model was built from.
func (m *Model) Config() Config { return m.cfg }

// HeatLayers returns the indices of the active (power-injecting) layers
// in stack order (die 1 first).
func (m *Model) HeatLayers() []int {
	out := make([]int, len(m.heatLayers))
	copy(out, m.heatLayers)
	return out
}

func (m *Model) idx(l, y, x int) int { return (l*m.ny+y)*m.nx + x }

// State is the mutable half of a solve: the temperature and power
// fields over one Model's grid. States are cheap to create and clone,
// so concurrent solves over a shared Model each own a private State and
// warm-start snapshots are plain values instead of locked solvers.
type State struct {
	m     *Model
	temp  []float64 // [layer][y][x] flattened, °C
	power []float64 // injected power per cell, W
}

// NewState returns a fresh state at ambient temperature with no power.
func (m *Model) NewState() *State {
	n := m.nl * m.nx * m.ny
	st := &State{m: m, temp: make([]float64, n), power: make([]float64, n)}
	for i := range st.temp {
		st.temp[i] = m.ambient
	}
	return st
}

// Model returns the immutable model this state solves over.
func (st *State) Model() *Model { return st.m }

// Clone returns an independent copy of the state (same model).
func (st *State) Clone() *State {
	c := &State{m: st.m, temp: make([]float64, len(st.temp)), power: make([]float64, len(st.power))}
	copy(c.temp, st.temp)
	copy(c.power, st.power)
	return c
}

// CopyFrom copies another state's fields; the models' geometries must
// match.
func (st *State) CopyFrom(src *State) error {
	if len(src.temp) != len(st.temp) {
		return fmt.Errorf("thermal: geometry mismatch (%d vs %d cells)", len(src.temp), len(st.temp))
	}
	copy(st.temp, src.temp)
	copy(st.power, src.power)
	return nil
}

// SetPower installs the power map (W per cell) for the die with the
// given heat-layer ordinal (0 = die 1, 1 = die 2). The grid dimensions
// must match the model's: every row is length-checked, so a ragged grid
// is an error, never a panic. Every cell must be a finite, non-negative
// power: a NaN never raises the solver's update norm, so it would
// "converge" at once on a meaningless field, and negative power cools
// the chip below ambient. The state is unchanged when SetPower fails.
func (st *State) SetPower(die int, grid [][]float64) error {
	m := st.m
	if die < 0 || die >= len(m.heatLayers) {
		return fmt.Errorf("thermal: no heat layer %d", die)
	}
	if len(grid) != m.ny {
		return fmt.Errorf("thermal: power grid has %d rows, want %d", len(grid), m.ny)
	}
	for y, row := range grid {
		if len(row) != m.nx {
			return fmt.Errorf("thermal: power grid row %d has %d cells, want %d", y, len(row), m.nx)
		}
		for x, w := range row {
			if !(w >= 0) || math.IsInf(w, 1) {
				return fmt.Errorf("thermal: die %d power at row %d, column %d is %v W, want a finite non-negative value", die, y, x, w)
			}
		}
	}
	l := m.heatLayers[die]
	for y := 0; y < m.ny; y++ {
		for x := 0; x < m.nx; x++ {
			st.power[m.idx(l, y, x)] = grid[y][x]
		}
	}
	return nil
}

// TotalPower returns the injected power in watts.
func (st *State) TotalPower() float64 {
	var p float64
	for _, w := range st.power {
		p += w
	}
	return p
}

// Solve iterates red-black SOR until the maximum update falls below
// tolC (°C) or maxIters is reached, returning the iteration count and
// whether the tolerance was actually met. converged=false means the
// field is the best available estimate, not a solution: callers must
// not silently treat an iteration-capped field as settled. The state's
// current field is the starting point (warm start).
//
// Sweeps fan out across up to GOMAXPROCS row bands; the red-black
// coloring makes every in-color update independent, so the resulting
// field and iteration count are byte-identical at any worker count
// (see SolveWith).
func (st *State) Solve(tolC Celsius, maxIters int) (iters int, converged bool) {
	return st.SolveWith(tolC, maxIters, runtime.GOMAXPROCS(0))
}

// SolveWith is Solve with an explicit band count. In a half-sweep every
// updated cell has color (l+y+x)%2 == parity and reads only opposite-
// color neighbours, so in-color updates are order-independent: any
// partitioning of the rows produces bit-identical results, and workers
// only sets how wide the fan-out is.
func (st *State) SolveWith(tolC Celsius, maxIters, workers int) (iters int, converged bool) {
	m := st.m
	tol := float64(tolC)
	rows := m.nl * m.ny
	p := workers
	if p < 1 {
		p = 1
	}
	if p > rows {
		p = rows
	}
	var deltas []float64
	if p > 1 {
		deltas = make([]float64, p)
	}
	for it := 1; it <= maxIters; it++ {
		var maxDelta float64
		for parity := 0; parity < 2; parity++ {
			if p == 1 {
				if d := m.sweepRows(st, parity, 0, rows); d > maxDelta {
					maxDelta = d
				}
				continue
			}
			var wg sync.WaitGroup
			for w := 0; w < p; w++ {
				wg.Add(1)
				go func(w, parity int) {
					defer wg.Done()
					deltas[w] = m.sweepRows(st, parity, w*rows/p, (w+1)*rows/p)
				}(w, parity)
			}
			wg.Wait()
			for _, d := range deltas {
				if d > maxDelta {
					maxDelta = d
				}
			}
		}
		if maxDelta < tol {
			return it, true
		}
	}
	return maxIters, false
}

// sweepRows relaxes the cells of one color (parity) in rows [r0, r1) —
// a row is one (layer, y) line — and returns the largest update. Cells
// of the swept color only read opposite-color neighbours, so concurrent
// sweepRows calls over disjoint row ranges of the same parity never
// overlap reads with writes.
func (m *Model) sweepRows(st *State, parity, r0, r1 int) float64 {
	var maxDelta float64
	nx, ny, planeCells := m.nx, m.ny, m.nx*m.ny
	for r := r0; r < r1; r++ {
		l, y := r/ny, r%ny
		x0 := (y + l + parity) % 2
		base := (l*ny + y) * nx
		gl := m.gLat[l]
		for x := x0; x < nx; x += 2 {
			i := base + x
			var gSum, flow float64
			if l > 0 {
				g := m.gUp[l-1]
				gSum += g
				flow += g * st.temp[i-planeCells]
			} else {
				gSum += m.gSink
				flow += m.gSink * m.ambient
			}
			if l < m.nl-1 {
				g := m.gUp[l]
				gSum += g
				flow += g * st.temp[i+planeCells]
			} else {
				gSum += m.gPack
				flow += m.gPack * m.ambient
			}
			if x > 0 {
				gSum += gl
				flow += gl * st.temp[i-1]
			}
			if x < nx-1 {
				gSum += gl
				flow += gl * st.temp[i+1]
			}
			if y > 0 {
				gSum += gl
				flow += gl * st.temp[i-nx]
			}
			if y < ny-1 {
				gSum += gl
				flow += gl * st.temp[i+nx]
			}
			tNew := (flow + st.power[i]) / gSum
			delta := tNew - st.temp[i]
			st.temp[i] += omega * delta
			if d := math.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
	}
	return maxDelta
}

// Precondition replaces the state's temperature field with the bilinear
// prolongation of a coarse-grid solve of the same stack under the
// current power map — a multigrid-style initial guess that captures the
// smooth bulk of the field, leaving the fine solve only the
// high-frequency remainder SOR is good at. It is a pure function of the
// power map, so a preconditioned solve is order-independent and needs
// no previous solution to start fast. It returns the coarse iteration
// count and whether the coarse solve converged; on a model too small to
// reduce it leaves the state untouched and reports (0, true). Call it
// on cold states only: it discards any field already present.
func (st *State) Precondition(tolC Celsius, maxIters int) (iters int, converged bool) {
	m := st.m
	c := m.coarse
	if c == nil {
		return 0, true
	}
	cst := c.NewState()
	// Restrict the power map: power is extensive, so each coarse cell
	// takes the sum of the fine cells it covers (row-major, so the
	// float accumulation order is fixed).
	for l := 0; l < m.nl; l++ {
		for y := 0; y < m.ny; y++ {
			cy := y * c.ny / m.ny
			for x := 0; x < m.nx; x++ {
				cx := x * c.nx / m.nx
				cst.power[c.idx(l, cy, cx)] += st.power[m.idx(l, y, x)]
			}
		}
	}
	// The coarse stack has ~1/coarseFactor² the cells; solve it
	// serially (fan-out overhead would dominate at this size).
	iters, converged = cst.SolveWith(tolC, maxIters, 1)
	// Prolong by bilinear interpolation between coarse cell centers
	// within each layer (clamped at the die edges).
	for l := 0; l < m.nl; l++ {
		for y := 0; y < m.ny; y++ {
			y0, fy := coarseCoord(y, m.ny, c.ny)
			for x := 0; x < m.nx; x++ {
				x0, fx := coarseCoord(x, m.nx, c.nx)
				t00 := cst.temp[c.idx(l, y0, x0)]
				t01 := cst.temp[c.idx(l, y0, x0+1)]
				t10 := cst.temp[c.idx(l, y0+1, x0)]
				t11 := cst.temp[c.idx(l, y0+1, x0+1)]
				st.temp[m.idx(l, y, x)] = (1-fy)*((1-fx)*t00+fx*t01) + fy*((1-fx)*t10+fx*t11)
			}
		}
	}
	return iters, converged
}

// coarseCoord maps fine index i (of n cells) into the coarse cell-center
// coordinate system (nc cells): the lower coarse index and the
// interpolation fraction toward the next one, clamped at the edges.
func coarseCoord(i, n, nc int) (lo int, frac float64) {
	u := (float64(i)+0.5)*float64(nc)/float64(n) - 0.5
	lo = int(math.Floor(u))
	frac = u - float64(lo)
	if lo < 0 {
		return 0, 0
	}
	if lo >= nc-1 {
		return nc - 2, 1
	}
	return lo, frac
}

// --- field readouts ----------------------------------------------------------

// PeakC returns the maximum temperature over the given die's active
// layer (die ordinal as in SetPower).
func (st *State) PeakC(die int) Celsius {
	m := st.m
	l := m.heatLayers[die]
	peak := math.Inf(-1)
	for y := 0; y < m.ny; y++ {
		for x := 0; x < m.nx; x++ {
			if t := st.temp[m.idx(l, y, x)]; t > peak {
				peak = t
			}
		}
	}
	return Celsius(peak)
}

// PeakAllC returns the maximum temperature over all active layers.
func (st *State) PeakAllC() Celsius {
	peak := Celsius(math.Inf(-1))
	for d := range st.m.heatLayers {
		if t := st.PeakC(d); t > peak {
			peak = t
		}
	}
	return peak
}

// CellC returns the temperature of one cell.
func (st *State) CellC(layer, y, x int) Celsius { return Celsius(st.temp[st.m.idx(layer, y, x)]) }

// MeanC returns the average temperature of the given die's active layer.
func (st *State) MeanC(die int) Celsius {
	m := st.m
	l := m.heatLayers[die]
	var sum float64
	for y := 0; y < m.ny; y++ {
		for x := 0; x < m.nx; x++ {
			sum += st.temp[m.idx(l, y, x)]
		}
	}
	return Celsius(sum / float64(m.nx*m.ny))
}
