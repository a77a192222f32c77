// Package thermal is a steady-state 3D thermal grid solver in the style
// of HotSpot-3.1's grid model, configured with the paper's Table 3
// parameters: a layered stack (bulk silicon, active silicon, copper
// metalization, die-to-die via layer for F2F-bonded stacks) discretized
// into a 50×50 grid per layer, a heat sink attached below the bulk
// silicon of die 1, and a 47 °C ambient.
//
// Heat flows vertically between layer cells and laterally between
// neighbouring cells of the same layer; each bottom cell additionally
// couples to ambient through its share of the heat-sink (convection +
// spreading) resistance, and each top cell couples weakly to ambient
// through the package. Power is injected in the active-silicon layers.
// The resulting linear system is solved by red-black successive
// over-relaxation.
//
// The solver is split into an immutable Model (geometry and
// conductances, shareable between any number of concurrent solves) and
// a cheap per-solve State (temperature and power fields, cloneable).
// Red-black half-sweeps fan out across row bands with byte-identical
// results at any worker count, and a coarse-grid preconditioner
// (Precondition) provides a deterministic warm start that replaces
// order-sensitive warm-start chaining.
package thermal

import (
	"fmt"
	"math"
	"strings"
)

// Table 3 parameters.
const (
	BulkSiDie1Um   = 750.0
	BulkSiDie2Um   = 20.0
	ActiveSiUm     = 1.0
	MetalUm        = 12.0
	D2DViaUm       = 10.0
	SiResistivity  = 0.01   // (m·K)/W
	CuResistivity  = 0.0833 // (m·K)/W — composite metal+ILD layer
	D2DResistivity = 0.0166 // (m·K)/W — accounts for air cavities and via density
	GridResolution = 50

	// Heat-spreader and sink-base plates (HotSpot's package model): a
	// 1 mm copper spreader and a 7 mm sink base under the bulk silicon.
	// The plates extend well beyond the die (HotSpot: 30 mm spreader,
	// 60 mm sink for a ~10 mm die); modeling them at die size with bulk
	// copper resistivity would overstate their vertical resistance and
	// understate lateral spreading, so an effective resistivity ≈3×
	// lower than bulk copper stands in for the extra cross-section.
	SpreaderUm         = 1000.0
	SinkBaseUm         = 7000.0
	CuPlateResistivity = 0.0008
)

// AmbientC is the paper's 47 °C ambient.
const AmbientC Celsius = 47.0

// Layer is one slab of the stack.
type Layer struct {
	Name        string
	ThicknessUm float64
	Resistivity float64 // (m·K)/W
	// Heat marks an active-silicon layer that receives a power map.
	Heat bool
}

// Config describes a stack instance.
type Config struct {
	Layers []Layer
	// DieWmm, DieHmm are the die outline.
	DieWmm, DieHmm float64
	// Nx, Ny is the grid resolution.
	Nx, Ny int
	// SinkResistanceKperW is the total heat-sink resistance (convection
	// plus spreading) from the bottom of the stack to ambient. The
	// paper's 2d-2a model has a larger die and hence a larger heat sink:
	// scale this inversely with die area via SinkFor.
	SinkResistanceKperW float64
	// PackageResistanceKperW is the (much larger) resistance from the
	// top of the stack to ambient through the package/C4 side.
	PackageResistanceKperW float64
	// AmbientC is the ambient temperature.
	AmbientC Celsius
}

// ReferenceSinkKperW is the heat-sink resistance of the 2d-a-sized die
// (≈52 mm²), calibrated so the 2d-a baseline lands in the paper's
// per-benchmark 60–85 °C window (Figure 5).
const ReferenceSinkKperW = 0.125

// ReferenceDieAreaMM2 is the 2d-a die area the reference sink matches.
const ReferenceDieAreaMM2 = 52.0

// SinkFor returns a heat-sink resistance scaled inversely with die area
// (a bigger die carries a bigger sink, as the paper notes for 2d-2a).
func SinkFor(dieAreaMM2 float64) float64 {
	return ReferenceSinkKperW * ReferenceDieAreaMM2 / dieAreaMM2
}

// Stack2D returns the single-die stack (heat sink, bulk Si, active Si,
// metal, package).
func Stack2D(dieWmm, dieHmm float64) Config {
	return Config{
		Layers: []Layer{
			{Name: "sinkbase", ThicknessUm: SinkBaseUm, Resistivity: CuPlateResistivity},
			{Name: "spreader", ThicknessUm: SpreaderUm, Resistivity: CuPlateResistivity},
			{Name: "bulk1a", ThicknessUm: BulkSiDie1Um / 2, Resistivity: SiResistivity},
			{Name: "bulk1b", ThicknessUm: BulkSiDie1Um / 2, Resistivity: SiResistivity},
			{Name: "active1", ThicknessUm: ActiveSiUm, Resistivity: SiResistivity, Heat: true},
			{Name: "metal1", ThicknessUm: MetalUm, Resistivity: CuResistivity},
		},
		DieWmm: dieWmm, DieHmm: dieHmm,
		Nx: GridResolution, Ny: GridResolution,
		SinkResistanceKperW:    SinkFor(dieWmm * dieHmm),
		PackageResistanceKperW: 25.0,
		AmbientC:               AmbientC,
	}
}

// Stack3D returns the two-die F2F stack of Figure 2(b): die 1 next to
// the heat sink, metal layers face to face joined by the d2d via layer,
// die 2's thinned bulk on top.
func Stack3D(dieWmm, dieHmm float64) Config {
	return Config{
		Layers: []Layer{
			{Name: "sinkbase", ThicknessUm: SinkBaseUm, Resistivity: CuPlateResistivity},
			{Name: "spreader", ThicknessUm: SpreaderUm, Resistivity: CuPlateResistivity},
			{Name: "bulk1a", ThicknessUm: BulkSiDie1Um / 2, Resistivity: SiResistivity},
			{Name: "bulk1b", ThicknessUm: BulkSiDie1Um / 2, Resistivity: SiResistivity},
			{Name: "active1", ThicknessUm: ActiveSiUm, Resistivity: SiResistivity, Heat: true},
			{Name: "metal1", ThicknessUm: MetalUm, Resistivity: CuResistivity},
			{Name: "d2d", ThicknessUm: D2DViaUm, Resistivity: D2DResistivity},
			{Name: "metal2", ThicknessUm: MetalUm, Resistivity: CuResistivity},
			{Name: "active2", ThicknessUm: ActiveSiUm, Resistivity: SiResistivity, Heat: true},
			{Name: "bulk2", ThicknessUm: BulkSiDie2Um, Resistivity: SiResistivity},
		},
		DieWmm: dieWmm, DieHmm: dieHmm,
		Nx: GridResolution, Ny: GridResolution,
		SinkResistanceKperW:    SinkFor(dieWmm * dieHmm),
		PackageResistanceKperW: 25.0,
		AmbientC:               AmbientC,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if len(c.Layers) == 0 {
		return fmt.Errorf("thermal: no layers")
	}
	if c.Nx <= 0 || c.Ny <= 0 || c.DieWmm <= 0 || c.DieHmm <= 0 {
		return fmt.Errorf("thermal: bad grid geometry")
	}
	if c.SinkResistanceKperW <= 0 || c.PackageResistanceKperW <= 0 {
		return fmt.Errorf("thermal: non-positive boundary resistance")
	}
	heat := 0
	for _, l := range c.Layers {
		if l.ThicknessUm <= 0 || l.Resistivity <= 0 {
			return fmt.Errorf("thermal: layer %s has non-positive parameters", l.Name)
		}
		if l.Heat {
			heat++
		}
	}
	if heat == 0 {
		return fmt.Errorf("thermal: no heat-source layer")
	}
	return nil
}

// Solver pairs a Model with one State. It is only an accessor for
// callers that reach a Transient's state through Transient.Solver
// (r3dperf's probes); everything else uses State directly.
type Solver struct {
	m  *Model
	st *State
}

// Model returns the immutable model the solver solves over.
func (s *Solver) Model() *Model { return s.m }

// State returns the solver's mutable state.
func (s *Solver) State() *State { return s.st }

// HeatmapASCII renders one layer's temperature field as a character
// raster. Rows are emitted top edge first.
func (st *State) HeatmapASCII(layer, cols int) string {
	m := st.m
	if cols <= 0 || cols > m.nx {
		cols = m.nx
	}
	ramp := []byte(" .:-=+*#%@")
	lo, hi := math.Inf(1), math.Inf(-1)
	for y := 0; y < m.ny; y++ {
		for x := 0; x < m.nx; x++ {
			t := st.temp[m.idx(layer, y, x)]
			lo = math.Min(lo, t)
			hi = math.Max(hi, t)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "layer %d: %.1f–%.1f °C\n", layer, lo, hi)
	step := m.nx / cols
	if step < 1 {
		step = 1
	}
	for y := m.ny - 1; y >= 0; y -= step {
		for x := 0; x < m.nx; x += step {
			t := st.temp[m.idx(layer, y, x)]
			idx := 0
			if hi > lo {
				idx = int((t - lo) / (hi - lo) * float64(len(ramp)-1))
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
