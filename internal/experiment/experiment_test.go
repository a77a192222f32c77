package experiment

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"r3d/internal/floorplan"
	"r3d/internal/thermal"
)

var (
	sessOnce sync.Once
	sess     *Session
)

// session returns a shared Fast-quality session so the integration tests
// reuse cached simulation windows.
func session() *Session {
	sessOnce.Do(func() { sess = NewSession(Fast()) })
	return sess
}

func TestQualitySuite(t *testing.T) {
	if got := len(Full().Suite()); got != 19 {
		t.Errorf("full suite has %d benchmarks, want 19", got)
	}
	if got := len(Fast().Suite()); got != 6 {
		t.Errorf("fast suite has %d benchmarks, want 6", got)
	}
}

func TestChipModelTable(t *testing.T) {
	for m, name := range []string{"2d-a", "2d-2a", "3d-2a", "3d-checker"} {
		got, err := ParseChipModel(name)
		if err != nil || got != ChipModel(m) || got.String() != name {
			t.Errorf("ParseChipModel(%q) = %v, %v; want %d", name, got, err, m)
		}
		if _, err := buildPlan(got, floorplan.DefaultOptions()); err != nil {
			t.Errorf("%s floorplan: %v", name, err)
		}
	}
	if _, err := ParseChipModel("4d-z"); err == nil {
		t.Error("unknown chip model must error")
	}
	for _, m := range []ChipModel{-1, M3DChecker + 1} {
		if got, want := m.String(), fmt.Sprintf("chipmodel(%d)", int(m)); got != want {
			t.Errorf("ChipModel(%d).String() = %q, want %q", int(m), got, want)
		}
		if _, err := buildPlan(m, floorplan.DefaultOptions()); err == nil {
			t.Errorf("buildPlan(ChipModel(%d)) must error", int(m))
		}
	}
}

func TestTable2(t *testing.T) {
	r, err := Table2(session())
	if err != nil {
		t.Fatal(err)
	}
	if r.LeadingCoreAreaMM2 != 19.6 || r.CheckerAreaMM2 != 5.0 || r.L2BankAreaMM2 != 5.0 {
		t.Errorf("Table 2 areas wrong: %+v", r)
	}
	if r.LeadingCoreAvgW < 20 || r.LeadingCoreAvgW > 50 {
		t.Errorf("leading core avg %.1f W outside band (paper: 35)", r.LeadingCoreAvgW)
	}
	if !strings.Contains(r.String(), "35 W") {
		t.Error("rendering must mention the paper reference")
	}
}

func TestTable4(t *testing.T) {
	r := Table4()
	if r.InterCore != 1025 || r.Total != 1409 {
		t.Errorf("via counts %d/%d, want 1025/1409", r.InterCore, r.Total)
	}
	if len(r.Rows) != 5 {
		t.Errorf("Table 4 needs 5 rows")
	}
}

func TestTable5(t *testing.T) {
	r, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Paper) != 4 || len(r.Model) != 4 {
		t.Fatal("Table 5 row count")
	}
	if r.Paper[3].Total != 3.98 {
		t.Error("paper anchors wrong")
	}
	if math.Abs(r.Model[3].Total-3.98) > 0.3 {
		t.Errorf("model 6 FO4 total %.2f too far from 3.98", r.Model[3].Total)
	}
}

func TestTables678(t *testing.T) {
	if got := len(Table6().Rows); got != 4 {
		t.Errorf("Table 6 rows = %d", got)
	}
	if got := len(Table7().Rows); got != 3 {
		t.Errorf("Table 7 rows = %d", got)
	}
	r8, err := Table8()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r8.Rows[0].Dynamic-2.21) > 0.02 {
		t.Errorf("Table 8 90/65 dynamic %.2f, want 2.21", r8.Rows[0].Dynamic)
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(session())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(CheckerPowerSweep) {
		t.Fatalf("row count %d", len(r.Rows))
	}
	if r.Baseline2DA < 60 || r.Baseline2DA > 95 {
		t.Errorf("2d-a baseline %.1f °C outside the paper's window", r.Baseline2DA)
	}
	var prev thermal.Celsius
	for i, row := range r.Rows {
		if row.T3D2A <= r.Baseline2DA {
			t.Errorf("3d-2a at %gW must be hotter than 2d-a", row.CheckerW)
		}
		if i > 0 && (row.T3D2A < prev || row.T2D2A < r.Rows[i-1].T2D2A-0.01) {
			t.Errorf("temperatures must be monotone in checker power")
		}
		prev = row.T3D2A
	}
	// §3.2: for low checker power the 2d-2a chip (bigger sink, spread
	// banks) is cooler than 2d-a; at high power it is hotter.
	if r.Rows[0].T2D2A >= r.Baseline2DA {
		t.Errorf("2d-2a at 2W (%.1f) should be cooler than 2d-a (%.1f)", r.Rows[0].T2D2A, r.Baseline2DA)
	}
	last := r.Rows[len(r.Rows)-1]
	if last.T2D2A <= r.Baseline2DA {
		t.Errorf("2d-2a at 25W (%.1f) should be hotter than 2d-a (%.1f)", last.T2D2A, r.Baseline2DA)
	}
}

func TestFigure5Shape(t *testing.T) {
	r, err := Figure5(session())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(session().Q.Suite()) {
		t.Fatalf("row count %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.T3D2A15W < row.T3D2A7W {
			t.Errorf("%s: 15W 3D must be ≥ 7W 3D", row.Bench)
		}
		if row.T3D2A7W <= row.T2DA-1 {
			t.Errorf("%s: 3D with checker should not be cooler than 2d-a", row.Bench)
		}
		if row.T2DA < 50 || row.T2DA > 100 {
			t.Errorf("%s: 2d-a %.1f °C implausible", row.Bench, row.T2DA)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(session())
	if err != nil {
		t.Fatal(err)
	}
	m2da, m2d2a, m3d2a, m3dchk := r.Means()
	// L2 hit latency ordering drives the means: 2d-2a (22 cyc) is the
	// slowest; 3d-2a matches 2d-a within noise.
	if m2d2a >= m3d2a {
		t.Errorf("3d-2a mean IPC %.3f must beat 2d-2a %.3f (shorter L2 hits)", m3d2a, m2d2a)
	}
	// The checker must not slow the leading core measurably.
	if m3dchk < m2da*0.97 {
		t.Errorf("3d-checker mean %.3f vs 2d-a %.3f: checker overhead too high", m3dchk, m2da)
	}
}

func TestFigure7Shape(t *testing.T) {
	r, err := Figure7(session())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range r.Fractions {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %.3f", sum)
	}
	if r.MeanNorm <= 0.05 || r.MeanNorm >= 0.95 {
		t.Errorf("mean normalized frequency %.2f implausible", r.MeanNorm)
	}
}

func TestFigure8And9(t *testing.T) {
	f8, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 4 || f8.Rows[0].Total != 1.0 {
		t.Errorf("Figure 8 normalization wrong: %+v", f8.Rows)
	}
	for i := 1; i < len(f8.Rows); i++ {
		if f8.Rows[i].Total >= f8.Rows[i-1].Total {
			t.Error("per-bit SER must fall with scaling")
		}
		if f8.Rows[i].ChipSER <= f8.Rows[i-1].ChipSER {
			t.Error("chip SER must rise with scaling")
		}
	}
	f9, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(f9.Curve); i++ {
		if f9.Curve[i].Prob <= f9.Curve[i-1].Prob {
			t.Error("MBU probability must rise as Qcrit falls")
		}
	}
}

func TestSection33(t *testing.T) {
	r, err := Section33(session())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.HitLat2DA-18) > 1 || math.Abs(r.HitLat2D2A-22) > 1 {
		t.Errorf("L2 hit latencies %.1f/%.1f, want ≈18/22", r.HitLat2DA, r.HitLat2D2A)
	}
	if math.Abs(r.HitLat3D2A-18) > 1.5 {
		t.Errorf("3d-2a hit latency %.1f, want ≈18", r.HitLat3D2A)
	}
	if r.Gain3Dvs2D2APct <= 0 {
		t.Errorf("3d-2a must outperform 2d-2a, got %+.2f%%", r.Gain3Dvs2D2APct)
	}
	if r.Freq7WGHz > 2.0 || r.Freq15WGHz > r.Freq7WGHz {
		t.Errorf("thermal-constrained frequencies inconsistent: %.1f / %.1f", r.Freq7WGHz, r.Freq15WGHz)
	}
	if r.PerfLoss15WPct < r.PerfLoss7WPct {
		t.Errorf("15W loss %.1f%% must exceed 7W loss %.1f%%", r.PerfLoss15WPct, r.PerfLoss7WPct)
	}
	if math.Abs(r.CheckerOverheadPct) > 3 {
		t.Errorf("checker overhead %.2f%%, want ≈0", r.CheckerOverheadPct)
	}
}

func TestSection34(t *testing.T) {
	r, err := Section34()
	if err != nil {
		t.Fatal(err)
	}
	if r.ViasInterCore != 1025 || r.ViasTotal != 1409 {
		t.Error("via counts wrong")
	}
	if r.InterCore3DMM >= r.InterCore2DMM {
		t.Error("3D must shorten inter-core wires")
	}
	if !(r.L2Metal2DA < r.L2Metal3D2A && r.L2Metal3D2A < r.L2Metal2D2A) {
		t.Errorf("L2 metal ordering wrong: %.2f %.2f %.2f", r.L2Metal2DA, r.L2Metal3D2A, r.L2Metal2D2A)
	}
	if !(r.Power2DA < r.Power3D2A && r.Power3D2A < r.Power2D2A) {
		t.Errorf("wire power ordering wrong: %.1f %.1f %.1f", r.Power2DA, r.Power3D2A, r.Power2D2A)
	}
	if r.ViaPowerMW > 25 || r.ViaPowerMW < 10 {
		t.Errorf("via power %.1f mW outside the paper's ballpark (15.49)", r.ViaPowerMW)
	}
	if math.Abs(r.ViaAreaMM2-0.07) > 0.005 {
		t.Errorf("via area %.3f, want ≈0.07", r.ViaAreaMM2)
	}
}

func TestSection32(t *testing.T) {
	r, err := Section32Variants(session())
	if err != nil {
		t.Fatal(err)
	}
	if r.TInactive15 >= r.T3D2A15 {
		t.Errorf("inactive silicon (%.1f) must be cooler than active banks (%.1f)", r.TInactive15, r.T3D2A15)
	}
	if r.TCorner15 >= r.T3D2A15 {
		t.Errorf("corner checker (%.1f) must be cooler than default (%.1f)", r.TCorner15, r.T3D2A15)
	}
	if r.TDouble15 <= r.T3D2A15 {
		t.Errorf("doubled power density (%.1f) must be hotter (%.1f)", r.TDouble15, r.T3D2A15)
	}
}

func TestSection35(t *testing.T) {
	r, err := Section35(session())
	if err != nil {
		t.Fatal(err)
	}
	if r.StageErrMode >= r.StageErrPeak/100 {
		t.Errorf("DFS slack must crush timing-error probability: %.2e vs %.2e", r.StageErrMode, r.StageErrPeak)
	}
	if r.Table5.Paper[1].Total/r.Table5.Paper[0].Total < 1.4 {
		t.Error("deep pipelining must look expensive")
	}
}

func TestSection4(t *testing.T) {
	r, err := Section4(session())
	if err != nil {
		t.Fatal(err)
	}
	if r.Checker90W < 23 || r.Checker90W > 27 {
		t.Errorf("90nm checker %.1f W, want ≈25 (paper: 23.7)", r.Checker90W)
	}
	if r.PeakFreq90GHz != 1.4 {
		t.Errorf("90nm peak frequency %.1f, want 1.4", r.PeakFreq90GHz)
	}
	if r.Temp90 >= r.Temp65+0.5 {
		t.Errorf("older-process die should not be hotter: %.1f vs %.1f", r.Temp90, r.Temp65)
	}
	if r.MBU90 >= r.MBU65 {
		t.Error("90nm MBU probability must be below 65nm")
	}
	if r.ConstThermalFreq90GHz < r.ConstThermalFreq65GHz {
		t.Errorf("const-thermal 90nm frequency (%.1f) should be ≥ 65nm (%.1f)",
			r.ConstThermalFreq90GHz, r.ConstThermalFreq65GHz)
	}
	if r.SlowdownPct > 30 {
		t.Errorf("cap slowdown %.1f%% implausible", r.SlowdownPct)
	}
}

func TestDFSAblation(t *testing.T) {
	r, err := DFSAblation(session())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 variants, got %d", len(r.Rows))
	}
	byName := map[string]DFSAblationRow{}
	for _, row := range r.Rows {
		byName[row.Variant] = row
		if row.MeanFreqGHz <= 0 || row.LeadIPC <= 0 {
			t.Errorf("%s: degenerate row %+v", row.Variant, row)
		}
	}
	agg, cons := byName["aggressive"], byName["conservative"]
	if agg.CheckerPowerW >= cons.CheckerPowerW {
		t.Errorf("aggressive throttling should save checker power: %.1f vs %.1f",
			agg.CheckerPowerW, cons.CheckerPowerW)
	}
	if agg.MeanOccupancy <= cons.MeanOccupancy {
		t.Errorf("aggressive throttling should run with fuller queues: %.0f vs %.0f",
			agg.MeanOccupancy, cons.MeanOccupancy)
	}
	if agg.SlowdownPct < cons.SlowdownPct-0.5 {
		t.Errorf("aggressive throttling should not stall the leading core less: %.2f%% vs %.2f%%",
			agg.SlowdownPct, cons.SlowdownPct)
	}
}

func TestDegradedMode(t *testing.T) {
	r, err := DegradedMode(session())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(session().Q.Suite()) {
		t.Fatalf("row count %d", len(r.Rows))
	}
	if r.MeanSlowdownPct <= 0 {
		t.Errorf("degraded mode must cost performance on average, got %.1f%%", r.MeanSlowdownPct)
	}
	for _, row := range r.Rows {
		if row.InOrderIPC <= 0 || row.InOrderIPC > 4 {
			t.Errorf("%s: implausible in-order IPC %.2f", row.Bench, row.InOrderIPC)
		}
	}
}

func TestQueueSizing(t *testing.T) {
	r, err := QueueSizing(session())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("row count %d", len(r.Rows))
	}
	// The tiniest queue must hurt more than the design point.
	var tiny, design QueueSizingRow
	for _, row := range r.Rows {
		if row.RVQSize == 25 {
			tiny = row
		}
		if row.RVQSize == 200 {
			design = row
		}
	}
	if tiny.SlowdownPct < design.SlowdownPct-0.05 {
		t.Errorf("25-entry RVQ slowdown %.2f%% should be ≥ 200-entry %.2f%%",
			tiny.SlowdownPct, design.SlowdownPct)
	}
	if design.SlowdownPct > 1.5 {
		t.Errorf("design-point slowdown %.2f%% should be negligible", design.SlowdownPct)
	}
}

func TestDTMStudy(t *testing.T) {
	r, err := DTMStudy(session(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if r.Peak3DC <= r.Peak2DAC {
		t.Errorf("3D chip must run hotter under DTM: %.1f vs %.1f", r.Peak3DC, r.Peak2DAC)
	}
	if r.Loss3DPct < r.Loss2DAPct {
		t.Errorf("3D chip must lose at least as much to throttling: %.1f%% vs %.1f%%",
			r.Loss3DPct, r.Loss2DAPct)
	}
}

func TestRenderersNonEmpty(t *testing.T) {
	s := session()
	f4, err := Figure4(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, str := range []string{f4.String(), Table4().String(), Table6().String(), Table7().String()} {
		if len(str) < 40 || !strings.Contains(str, "\n") {
			t.Errorf("renderer output too small: %q", str)
		}
	}
}

func TestInjectionStudy(t *testing.T) {
	q := Fast()
	q.Benchmarks = []string{"gzip", "mesa"}
	q.MeasureInsts = 30_000
	r, err := InjectionStudy(NewSession(q), 3)
	if err != nil {
		t.Fatal(err)
	}
	// 2 benches × 2 seeds × 2 lead rates + the livelock self-test.
	if r.Report.Summary.Trials != 9 || r.Report.Summary.OK != 8 || r.Report.Summary.Hung != 1 {
		t.Fatalf("unexpected campaign summary: %+v", r.Report.Summary)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("want one row per benchmark, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Trials < 4 || row.OK < 4 {
			t.Errorf("%s: %d trials / %d ok, want ≥4 each", row.Bench, row.Trials, row.OK)
		}
		// Coverage is detected-per-leading-injection, so checker-RF
		// detections can push it past 1.
		if row.MeanCoverage <= 0 {
			t.Errorf("%s: coverage %.3f, want > 0", row.Bench, row.MeanCoverage)
		}
	}
	out := r.String()
	if !strings.Contains(out, "hung (no-progress") {
		t.Errorf("self-test verdict missing from render:\n%s", out)
	}
}
