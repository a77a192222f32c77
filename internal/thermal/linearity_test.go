package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// TestSuperposition verifies the solver is linear: the temperature rise
// of a summed power map equals the sum of the rises of its parts,
// pointwise — the property the §3.3 constant-thermal frequency search
// relies on.
func TestSuperposition(t *testing.T) {
	cfg := Stack3D(7.2, 7.2)
	r := rand.New(rand.NewSource(3))
	randGrid := func(total float64) [][]float64 {
		g := make([][]float64, cfg.Ny)
		var sum float64
		for y := range g {
			g[y] = make([]float64, cfg.Nx)
			for x := range g[y] {
				g[y][x] = r.Float64()
				sum += g[y][x]
			}
		}
		for y := range g {
			for x := range g[y] {
				g[y][x] *= total / sum
			}
		}
		return g
	}
	p1 := randGrid(30)
	p2 := randGrid(12)
	solve := func(d1, d2 [][]float64) *State {
		s := NewModel(cfg).NewState()
		if d1 != nil {
			if err := s.SetPower(0, d1); err != nil {
				t.Fatal(err)
			}
		}
		if d2 != nil {
			if err := s.SetPower(1, d2); err != nil {
				t.Fatal(err)
			}
		}
		s.Solve(1e-6, 80000)
		return s
	}
	sA := solve(p1, nil)
	sB := solve(nil, p2)
	sAB := solve(p1, p2)
	for _, probe := range [][3]int{{2, 10, 10}, {4, 25, 25}, {8, 40, 5}} {
		l, y, x := probe[0], probe[1], probe[2]
		a := sA.CellC(l, y, x) - cfg.AmbientC
		b := sB.CellC(l, y, x) - cfg.AmbientC
		ab := sAB.CellC(l, y, x) - cfg.AmbientC
		if math.Abs(float64(ab-(a+b))) > 0.05*math.Max(1, float64(ab)) {
			t.Errorf("superposition violated at (%d,%d,%d): %.3f vs %.3f+%.3f", l, y, x, ab, a, b)
		}
	}
}

// TestPowerBalance checks global conservation: in steady state, the heat
// leaving through the sink and package boundaries equals the injected
// power.
func TestPowerBalance(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	const P = 37.0
	grid := make([][]float64, cfg.Ny)
	for y := range grid {
		grid[y] = make([]float64, cfg.Nx)
		for x := range grid[y] {
			grid[y][x] = P / float64(cfg.Nx*cfg.Ny)
		}
	}
	if err := s.SetPower(0, grid); err != nil {
		t.Fatal(err)
	}
	s.Solve(1e-7, 200000)
	m := s.Model()
	var out float64
	for y := 0; y < cfg.Ny; y++ {
		for x := 0; x < cfg.Nx; x++ {
			out += m.gSink * float64(s.CellC(0, y, x)-cfg.AmbientC)
			out += m.gPack * float64(s.CellC(m.nl-1, y, x)-cfg.AmbientC)
		}
	}
	if math.Abs(out-P) > 0.02*P {
		t.Errorf("boundary outflow %.3f W, injected %.1f W", out, P)
	}
}
