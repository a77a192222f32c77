package thermal

import (
	"math"
	"testing"
)

func uniformGrid(nx, ny int, totalW float64) [][]float64 {
	g := make([][]float64, ny)
	per := totalW / float64(nx*ny)
	for y := range g {
		g[y] = make([]float64, nx)
		for x := range g[y] {
			g[y][x] = per
		}
	}
	return g
}

func TestValidate(t *testing.T) {
	good := Stack2D(7.2, 7.2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Layers = nil },
		func(c *Config) { c.Nx = 0 },
		func(c *Config) { c.SinkResistanceKperW = 0 },
		func(c *Config) { c.Layers[0].ThicknessUm = 0 },
		func(c *Config) {
			for i := range c.Layers {
				c.Layers[i].Heat = false
			}
		},
	}
	for i, mutate := range cases {
		c := Stack2D(7.2, 7.2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestZeroPowerIsAmbient(t *testing.T) {
	s := NewModel(Stack2D(7.2, 7.2)).NewState()
	s.Solve(1e-6, 5000)
	if got := s.PeakAllC(); math.Abs(float64(got-AmbientC)) > 1e-3 {
		t.Errorf("unpowered chip at %.3f °C, want ambient %v", got, AmbientC)
	}
}

func TestUniformPowerMatchesAnalyticSink(t *testing.T) {
	// With uniform power the lateral gradients vanish and the mean
	// active-layer temperature must equal ambient + P·(R_sink + R_bulk)
	// to good accuracy (package path carries ~1% of the heat).
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	const P = 40.0
	if err := s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, P)); err != nil {
		t.Fatal(err)
	}
	s.Solve(1e-5, 20000)
	area := cfg.DieWmm * cfg.DieHmm * 1e-6 // m²
	// Series resistance from ambient to the active layer: convection,
	// every full layer below the active one, and half the active layer.
	rBelow := cfg.SinkResistanceKperW
	for _, l := range cfg.Layers {
		if l.Heat {
			rBelow += l.Resistivity * (l.ThicknessUm / 2) * 1e-6 / area
			break
		}
		rBelow += l.Resistivity * l.ThicknessUm * 1e-6 / area
	}
	want := cfg.AmbientC + Celsius(P*rBelow)
	got := s.MeanC(0)
	if math.Abs(float64(got-want)) > 1.0 {
		t.Errorf("uniform-power mean %.2f °C, want ≈%.2f", got, want)
	}
}

func TestPowerConservation(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 33))
	if math.Abs(s.TotalPower()-33) > 1e-9 {
		t.Errorf("TotalPower = %v, want 33", s.TotalPower())
	}
}

func TestHotSpotIsLocalized(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	g := uniformGrid(cfg.Nx, cfg.Ny, 0)
	// 20 W concentrated in a 5×5 corner patch.
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			g[y][x] = 20.0 / 25
		}
	}
	s.SetPower(0, g)
	s.Solve(1e-4, 20000)
	corner := s.CellC(s.Model().HeatLayers()[0], 2, 2)
	far := s.CellC(s.Model().HeatLayers()[0], cfg.Ny-3, cfg.Nx-3)
	if corner-far < 5 {
		t.Errorf("hot spot not localized: corner %.2f vs far %.2f", corner, far)
	}
	if far < AmbientC {
		t.Errorf("far corner below ambient: %.2f", far)
	}
}

func TestMorePowerIsHotter(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 20))
	s.Solve(1e-4, 20000)
	t20 := s.PeakAllC()
	s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 40))
	s.Solve(1e-4, 20000)
	t40 := s.PeakAllC()
	if t40 <= t20 {
		t.Errorf("doubling power must raise temperature: %.2f vs %.2f", t40, t20)
	}
}

func TestLinearity(t *testing.T) {
	// Steady-state conduction is linear: ΔT scales with power.
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 10))
	s.Solve(1e-6, 30000)
	d10 := s.PeakAllC() - cfg.AmbientC
	s2 := NewModel(cfg).NewState()
	s2.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 30))
	s2.Solve(1e-6, 30000)
	d30 := s2.PeakAllC() - cfg.AmbientC
	if math.Abs(float64(d30-3*d10)) > 0.05*float64(d30) {
		t.Errorf("non-linear response: ΔT(30W)=%.2f vs 3×ΔT(10W)=%.2f", d30, 3*d10)
	}
}

func TestStackedHeatRaisesDie1(t *testing.T) {
	// Heat on die 2 must pass through die 1 to reach the sink, raising
	// die 1's temperature too (the fundamental 3D thermal cost).
	cfg := Stack3D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 40))
	s.Solve(1e-5, 30000)
	base := s.PeakC(0)
	s.SetPower(1, uniformGrid(cfg.Nx, cfg.Ny, 15))
	s.Solve(1e-5, 30000)
	with := s.PeakC(0)
	if with-base < 3 {
		t.Errorf("15 W on die 2 should raise die 1 noticeably: %.2f → %.2f", base, with)
	}
	// Die 2 must be at least as hot as die 1 (it is farther from the
	// sink).
	if s.PeakC(1) < with-0.5 {
		t.Errorf("die 2 (%.2f) colder than die 1 (%.2f)", s.PeakC(1), with)
	}
}

func TestBiggerSinkIsCooler(t *testing.T) {
	// The 2d-2a die is twice the area and carries a bigger heat sink.
	small := Stack2D(7.2, 7.2)
	big := Stack2D(10.2, 10.2)
	if big.SinkResistanceKperW >= small.SinkResistanceKperW {
		t.Fatal("larger die must have lower sink resistance")
	}
	s1 := NewModel(small).NewState()
	s1.SetPower(0, uniformGrid(small.Nx, small.Ny, 40))
	s1.Solve(1e-4, 20000)
	s2 := NewModel(big).NewState()
	s2.SetPower(0, uniformGrid(big.Nx, big.Ny, 40))
	s2.Solve(1e-4, 20000)
	if s2.PeakAllC() >= s1.PeakAllC() {
		t.Errorf("same power on bigger die/sink must be cooler: %.2f vs %.2f", s2.PeakAllC(), s1.PeakAllC())
	}
}

func TestWarmStartConvergesFaster(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 40))
	cold, convCold := s.Solve(1e-4, 50000)
	s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 41))
	warm, convWarm := s.Solve(1e-4, 50000)
	if !convCold || !convWarm {
		t.Fatalf("solves must converge within budget (cold %v, warm %v)", convCold, convWarm)
	}
	if warm >= cold {
		t.Errorf("warm start (%d iters) should beat cold start (%d)", warm, cold)
	}
}

func TestSolveReportsNonConvergence(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	s.SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 40))
	iters, converged := s.Solve(1e-9, 3)
	if converged {
		t.Error("3 iterations at 1e-9 tolerance must not report convergence")
	}
	if iters != 3 {
		t.Errorf("non-converged solve reports %d iters, want the cap (3)", iters)
	}
	// The same system with a real budget does converge, so the flag is
	// about the budget, not the problem.
	if _, ok := s.Solve(1e-4, 50000); !ok {
		t.Error("generous budget must converge")
	}
}

func TestSetPowerErrors(t *testing.T) {
	s := NewModel(Stack2D(7.2, 7.2)).NewState()
	if err := s.SetPower(1, uniformGrid(50, 50, 1)); err == nil {
		t.Error("2D stack has no die 2")
	}
	if err := s.SetPower(0, uniformGrid(10, 10, 1)); err == nil {
		t.Error("grid size mismatch must error")
	}
}

func TestNewModelPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel(Config{})
}
