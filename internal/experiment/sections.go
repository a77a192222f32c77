package experiment

import (
	"fmt"
	"math"
	"strings"

	"r3d/internal/fault"
	"r3d/internal/floorplan"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/power"
	"r3d/internal/tech"
	"r3d/internal/thermal"
	"r3d/internal/wire"
)

// --- §3.3: performance -------------------------------------------------------

// Section33Result collects the scalar performance results of §3.3.
type Section33Result struct {
	// L2 organization effects.
	HitLat2DA, HitLat2D2A, HitLat3D2A  float64
	Miss10k6MB, Miss10k15MB            float64
	IPC2DA, IPC2D2A, IPC3D2A, IPC3DChk float64
	Gain3Dvs2D2APct                    float64
	CheckerOverheadPct                 float64 // 3d-checker vs 2d-a (≈0)
	WaysVsSetsPct                      float64 // distributed-ways gain

	// Thermal-constrained operation.
	Freq7WGHz, Freq15WGHz         float64
	PerfLoss7WPct, PerfLoss15WPct float64
}

// Section33Manifest declares the statically known windows: leading runs
// across the three organizations, the ways-vs-sets comparison, the RMT
// column and the suite activity. The thermal-constrained IPC windows
// depend on solved temperatures (the DVFS memory latency is derived
// mid-experiment), so they are computed on demand through the same
// memoized engine.
func Section33Manifest(q Quality) []RunKey {
	var keys []RunKey
	for _, l2c := range []L2Config{L2DA, L2D2A, L3D2A} {
		keys = append(keys, suiteLeadKeys(q, l2c, nuca.DistributedSets, 0)...)
	}
	keys = append(keys, suiteLeadKeys(q, L2D2A, nuca.DistributedWays, 0)...)
	return append(keys, suiteRMTKeys(q, L2DA, 2.0)...)
}

// Section33 regenerates §3.3.
func Section33(s *Session) (Section33Result, error) {
	var res Section33Result
	suite := s.Q.Suite()
	n := float64(len(suite))

	var waysIPC, setsIPC float64
	for _, b := range suite {
		name := b.Profile.Name
		r6, err := s.Leading(name, L2DA, nuca.DistributedSets, 0)
		if err != nil {
			return res, err
		}
		r15, err := s.Leading(name, L2D2A, nuca.DistributedSets, 0)
		if err != nil {
			return res, err
		}
		r3d, err := s.Leading(name, L3D2A, nuca.DistributedSets, 0)
		if err != nil {
			return res, err
		}
		rw, err := s.Leading(name, L2D2A, nuca.DistributedWays, 0)
		if err != nil {
			return res, err
		}
		rmt, err := s.RMT(name, L2DA, 2.0)
		if err != nil {
			return res, err
		}
		res.HitLat2DA += r6.Stats.MeanL2HitLatency() / n
		res.HitLat2D2A += r15.Stats.MeanL2HitLatency() / n
		res.HitLat3D2A += r3d.Stats.MeanL2HitLatency() / n
		res.Miss10k6MB += r6.Stats.L2MissesPer10k() / n
		res.Miss10k15MB += r15.Stats.L2MissesPer10k() / n
		res.IPC2DA += r6.IPC() / n
		res.IPC2D2A += r15.IPC() / n
		res.IPC3D2A += r3d.IPC() / n
		res.IPC3DChk += rmt.Lead.IPC() / n
		setsIPC += r15.IPC() / n
		waysIPC += rw.IPC() / n
	}
	res.Gain3Dvs2D2APct = (res.IPC3D2A/res.IPC2D2A - 1) * 100
	res.CheckerOverheadPct = (1 - res.IPC3DChk/res.IPC2DA) * 100
	res.WaysVsSetsPct = (waysIPC/setsIPC - 1) * 100

	// Thermal-constrained frequencies: conduction is linear, and the
	// DVFS study scales V with f, so block power scales ≈ fRel³ and the
	// temperature rise over ambient scales with it. Match the 3D chip's
	// ΔT to the 2d-a baseline's.
	act, rate6, err := s.SuiteActivity(L2DA)
	if err != nil {
		return res, err
	}
	rate15 := rate6 * 6 / 15
	base, err := s.SolveThermal(ThermalCase{Model: M2DA, Act: act, L2Rate: rate6})
	if err != nil {
		return res, err
	}
	for _, c := range []struct {
		w    float64
		freq *float64
		loss *float64
	}{
		{power.CheckerOptimisticW, &res.Freq7WGHz, &res.PerfLoss7WPct},
		{power.CheckerPessimisticW, &res.Freq15WGHz, &res.PerfLoss15WPct},
	} {
		t3, err := s.SolveThermal(ThermalCase{Model: M3D2A, Act: act, L2Rate: rate15, CheckerW: c.w})
		if err != nil {
			return res, err
		}
		fRel := 1.0
		if t3.PeakC > base.PeakC {
			fRel = math.Cbrt(float64((base.PeakC - thermal.AmbientC) / (t3.PeakC - thermal.AmbientC)))
		}
		// Quantize to the 100 MHz steps the paper reports.
		fGHz := math.Floor(fRel*2.0*10+0.5) / 10
		*c.freq = fGHz
		fRel = fGHz / 2.0
		// Performance at the reduced frequency: wall-clock memory
		// latency is unchanged, so the scaled core sees fewer cycles.
		memLat := int(float64(ooo.Default().MemLatencyCycles)*fRel + 0.5)
		var ipcScaled float64
		for _, b := range suite {
			r, err := s.Leading(b.Profile.Name, L3D2A, nuca.DistributedSets, memLat)
			if err != nil {
				return res, err
			}
			ipcScaled += r.IPC() / n
		}
		*c.loss = (1 - ipcScaled*fRel/res.IPC2DA) * 100
	}
	return res, nil
}

// String renders §3.3.
func (r Section33Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.3: Performance\n")
	fmt.Fprintf(&b, "  mean L2 hit latency: 2d-a %.1f cyc, 2d-2a %.1f, 3d-2a %.1f (paper: 18 / 22 / ≈18)\n",
		r.HitLat2DA, r.HitLat2D2A, r.HitLat3D2A)
	fmt.Fprintf(&b, "  L2 misses per 10k instr: %.2f @6MB → %.2f @15MB (paper: 1.43 → 1.25)\n",
		r.Miss10k6MB, r.Miss10k15MB)
	fmt.Fprintf(&b, "  mean IPC: 2d-a %.2f, 2d-2a %.2f, 3d-2a %.2f, 3d-checker %.2f\n",
		r.IPC2DA, r.IPC2D2A, r.IPC3D2A, r.IPC3DChk)
	fmt.Fprintf(&b, "  3d-2a vs 2d-2a: %+.1f%% (paper: +5.5%%)\n", r.Gain3Dvs2D2APct)
	fmt.Fprintf(&b, "  checker overhead (3d-checker vs 2d-a): %.2f%% (paper: ≈0)\n", r.CheckerOverheadPct)
	fmt.Fprintf(&b, "  distributed-ways vs distributed-sets: %+.2f%% (paper: <2%%)\n", r.WaysVsSetsPct)
	fmt.Fprintf(&b, "  thermal-constrained: 7W checker → %.1f GHz, perf loss %.1f%% (paper: 1.9 GHz, 4.1%%)\n",
		r.Freq7WGHz, r.PerfLoss7WPct)
	fmt.Fprintf(&b, "                      15W checker → %.1f GHz, perf loss %.1f%% (paper: 1.8 GHz, 8.2%%)\n",
		r.Freq15WGHz, r.PerfLoss15WPct)
	return b.String()
}

// --- §3.4: interconnects -----------------------------------------------------

// Section34Result collects the interconnect evaluation.
type Section34Result struct {
	InterCore2DMM, InterCore3DMM         float64
	InterCoreMetal2D, InterCoreMetal3D   float64
	MetalSavingsPct                      float64
	L2Metal2DA, L2Metal2D2A, L2Metal3D2A float64
	Power2DA, Power2D2A, Power3D2A       float64
	InterCorePower3D                     float64
	ViasInterCore, ViasTotal             int
	ViaPowerMW                           float64
	ViaAreaMM2                           float64
}

// Section34 regenerates §3.4 from the floorplans.
func Section34() (Section34Result, error) {
	cfg := ooo.Default()
	var res Section34Result
	res.ViasInterCore, res.ViasTotal = wire.InterCoreVias(cfg)
	res.ViaPowerMW = wire.D2DViaPower(res.ViasTotal) * 1e3
	res.ViaAreaMM2 = wire.D2DViaAreaMM2(res.ViasTotal)

	f2da := floorplan.Build2DA()
	f2d2a := floorplan.Build2D2A(floorplan.DefaultOptions())
	f3d2a := floorplan.Build3D2A(floorplan.DefaultOptions())

	ic2d, err := wire.InterCoreRoutes(f2d2a, cfg)
	if err != nil {
		return res, err
	}
	ic3d, err := wire.InterCoreRoutes(f3d2a, cfg)
	if err != nil {
		return res, err
	}
	res.InterCore2DMM = wire.TotalWireMM(ic2d)
	res.InterCore3DMM = wire.TotalWireMM(ic3d)
	res.InterCoreMetal2D = wire.MetalAreaMM2(ic2d)
	res.InterCoreMetal3D = wire.MetalAreaMM2(ic3d)
	res.MetalSavingsPct = (1 - res.InterCoreMetal3D/res.InterCoreMetal2D) * 100

	l2a, err := wire.L2Routes(f2da, []string{"L2Bank"})
	if err != nil {
		return res, err
	}
	l22, err := wire.L2Routes(f2d2a, []string{"L2Bank"})
	if err != nil {
		return res, err
	}
	l23, err := wire.L2Routes(f3d2a, []string{"L2Bank", "TopBank"})
	if err != nil {
		return res, err
	}
	res.L2Metal2DA = wire.MetalAreaMM2(l2a)
	res.L2Metal2D2A = wire.MetalAreaMM2(l22)
	res.L2Metal3D2A = wire.MetalAreaMM2(l23)

	res.Power2DA = wire.PowerW(l2a, wire.WireActivity)
	res.Power2D2A = wire.PowerW(l22, wire.WireActivity) + wire.PowerW(ic2d, wire.WireActivity)
	res.InterCorePower3D = wire.PowerW(ic3d, wire.WireActivity)
	res.Power3D2A = wire.PowerW(l23, wire.WireActivity) + res.InterCorePower3D
	return res, nil
}

// String renders §3.4.
func (r Section34Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.4: Interconnect evaluation\n")
	fmt.Fprintf(&b, "  d2d vias: %d inter-core + L2 pillar = %d total (paper: 1025/1409)\n", r.ViasInterCore, r.ViasTotal)
	fmt.Fprintf(&b, "  via power %.2f mW (paper: 15.49), via area %.3f mm² (paper: 0.07)\n", r.ViaPowerMW, r.ViaAreaMM2)
	fmt.Fprintf(&b, "  inter-core wire: 2D %.0f mm → 3D %.0f mm (paper: 7490 → 4279)\n", r.InterCore2DMM, r.InterCore3DMM)
	fmt.Fprintf(&b, "  inter-core metal: %.3f → %.3f mm², saving %.0f%% (paper: 1.57 → 0.898, 42%%)\n",
		r.InterCoreMetal2D, r.InterCoreMetal3D, r.MetalSavingsPct)
	fmt.Fprintf(&b, "  L2 metal area: 2d-a %.2f, 2d-2a %.2f, 3d-2a %.2f mm² (paper: 2.36 / 5.49 / 4.61)\n",
		r.L2Metal2DA, r.L2Metal2D2A, r.L2Metal3D2A)
	fmt.Fprintf(&b, "  wire power: 2d-a %.1f, 2d-2a %.1f, 3d-2a %.1f W (paper: 5.1 / 15.5 / 12.1)\n",
		r.Power2DA, r.Power2D2A, r.Power3D2A)
	fmt.Fprintf(&b, "  inter-core power in 3D: %.1f W (paper: 1.8)\n", r.InterCorePower3D)
	return b.String()
}

// --- §3.2 variants -----------------------------------------------------------

// Section32Result collects the thermal what-ifs of §3.2.
type Section32Result struct {
	T2DA thermal.Celsius
	// 15 W checker (pessimistic) cases.
	T3D2A15, TInactive15, TCorner15, TDouble15 thermal.Celsius
	// 7 W checker cases for the inactive-silicon comparison.
	T3D2A7, TInactive7 thermal.Celsius
}

// Section32Manifest declares the suite-activity windows.
func Section32Manifest(q Quality) []RunKey {
	return activityKeys(q, L2DA)
}

// Section32Variants regenerates the §3.2 design variants. The seven
// thermal what-ifs are prefetched across the session's workers, then
// rendered from the memoized snapshots.
func Section32Variants(s *Session) (Section32Result, error) {
	act, rate6, err := s.SuiteActivity(L2DA)
	if err != nil {
		return Section32Result{}, err
	}
	rate15 := rate6 * 6 / 15
	var res Section32Result

	corner := floorplan.DefaultOptions()
	corner.CheckerAtCorner = true
	double := floorplan.DefaultOptions()
	double.CheckerPowerDensityScale = 0.5
	if err := s.PrefetchThermal([]ThermalCase{
		{Model: M2DA, Act: act, L2Rate: rate6},
		{Model: M3D2A, Act: act, L2Rate: rate15, CheckerW: power.CheckerPessimisticW},
		{Model: M3D2A, Act: act, L2Rate: rate15, CheckerW: power.CheckerOptimisticW},
		{Model: M3DChecker, Act: act, L2Rate: rate15, CheckerW: power.CheckerPessimisticW},
		{Model: M3DChecker, Act: act, L2Rate: rate15, CheckerW: power.CheckerOptimisticW},
		{Model: M3D2A, Opt: corner, Act: act, L2Rate: rate15, CheckerW: power.CheckerPessimisticW},
		{Model: M3D2A, Opt: double, Act: act, L2Rate: rate15, CheckerW: power.CheckerPessimisticW},
	}); err != nil {
		return res, err
	}

	base, err := s.SolveThermal(ThermalCase{Model: M2DA, Act: act, L2Rate: rate6})
	if err != nil {
		return res, err
	}
	res.T2DA = base.PeakC

	solve := func(m ChipModel, opt floorplan.Options, w float64) (thermal.Celsius, error) {
		t, err := s.SolveThermal(ThermalCase{Model: m, Opt: opt, Act: act, L2Rate: rate15, CheckerW: w})
		return t.PeakC, err
	}
	if res.T3D2A15, err = solve(M3D2A, floorplan.DefaultOptions(), power.CheckerPessimisticW); err != nil {
		return res, err
	}
	if res.T3D2A7, err = solve(M3D2A, floorplan.DefaultOptions(), power.CheckerOptimisticW); err != nil {
		return res, err
	}
	// Inactive silicon: the checker-only top die (banks stay on die 1
	// count-wise in the paper's comparison; the point is removing top-die
	// bank power).
	if res.TInactive15, err = solve(M3DChecker, floorplan.DefaultOptions(), power.CheckerPessimisticW); err != nil {
		return res, err
	}
	if res.TInactive7, err = solve(M3DChecker, floorplan.DefaultOptions(), power.CheckerOptimisticW); err != nil {
		return res, err
	}
	if res.TCorner15, err = solve(M3D2A, corner, power.CheckerPessimisticW); err != nil {
		return res, err
	}
	if res.TDouble15, err = solve(M3D2A, double, power.CheckerPessimisticW); err != nil {
		return res, err
	}
	return res, nil
}

// String renders the §3.2 variants.
func (r Section32Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.2 variants (peak °C, 2d-a baseline %.1f)\n", r.T2DA)
	fmt.Fprintf(&b, "  3d-2a 7W %.1f; inactive-silicon top die %.1f (Δ %.1f; paper: −2)\n",
		r.T3D2A7, r.TInactive7, r.TInactive7-r.T3D2A7)
	fmt.Fprintf(&b, "  3d-2a 15W %.1f; inactive silicon %.1f (Δ %.1f; paper: −1)\n",
		r.T3D2A15, r.TInactive15, r.TInactive15-r.T3D2A15)
	fmt.Fprintf(&b, "  checker at corner: %.1f (Δ %.1f; paper: ≈−1.5)\n", r.TCorner15, r.TCorner15-r.T3D2A15)
	fmt.Fprintf(&b, "  2× checker power density: %.1f (Δ vs 2d-a %.1f; paper: up to +19)\n",
		r.TDouble15, r.TDouble15-r.T2DA)
	return b.String()
}

// --- §3.5: conservative timing margins ---------------------------------------

// Section35Result combines the deep-pipeline rejection with the
// DFS-slack error-resilience argument.
type Section35Result struct {
	Table5 Table5Result
	// MeanNorm/ModeNorm describe the frequency residency (Figure 7).
	MeanNorm, ModeNorm float64
	// SlackAtMode is the per-stage timing slack fraction at the modal
	// frequency.
	SlackAtMode float64
	// StageErrPeak/StageErrMode are per-stage timing-error probabilities
	// at peak frequency and at the modal DFS frequency (65 nm).
	StageErrPeak, StageErrMode float64
}

// Section35Manifest declares the Figure 7 RMT windows it aggregates.
func Section35Manifest(q Quality) []RunKey {
	return Figure7Manifest(q)
}

// Section35 regenerates §3.5.
func Section35(s *Session) (Section35Result, error) {
	t5, err := Table5()
	if err != nil {
		return Section35Result{}, err
	}
	f7, err := Figure7(s)
	if err != nil {
		return Section35Result{}, err
	}
	tm := tech.TimingModelFor(tech.Node65)
	const critPs = 495 // 500 ps budget with ~1% guard band
	modePeriod := 500.0 / f7.ModeNorm
	return Section35Result{
		Table5:       t5,
		MeanNorm:     f7.MeanNorm,
		ModeNorm:     f7.ModeNorm,
		SlackAtMode:  1 - f7.ModeNorm*critPs/500.0,
		StageErrPeak: tm.ErrorProbability(500, critPs),
		StageErrMode: tm.ErrorProbability(modePeriod, critPs),
	}, nil
}

// String renders §3.5.
func (r Section35Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.5: Conservative timing margins\n")
	b.WriteString(r.Table5.String())
	fmt.Fprintf(&b, "  deep pipelining rejected: 14 FO4 already costs ≈%.0f%% more power\n",
		(r.Table5.Paper[1].Total/r.Table5.Paper[0].Total-1)*100)
	fmt.Fprintf(&b, "  DFS gives slack for free: checker mode %.1ff, mean %.2ff\n", r.ModeNorm, r.MeanNorm)
	fmt.Fprintf(&b, "  per-stage timing-error probability: %.2e at peak f → %.2e at mode (%.0f%% slack)\n",
		r.StageErrPeak, r.StageErrMode, r.SlackAtMode*100)
	return b.String()
}

// --- §4: heterogeneous checker die -------------------------------------------

// Section4Result collects the older-process study.
type Section4Result struct {
	Checker65W, Checker90W float64 // nominal (peak-frequency) power
	// Actual DFS-throttled dissipation used for the thermal comparison
	// (the paper's §4 compares observed checker-die power: 18 W at
	// 65 nm → 24.9 W at 90 nm in its models).
	Actual65W, Actual90W   float64
	TopBanks65, TopBanks90 int
	Temp65, Temp90         thermal.Celsius // 3d-2a peak anywhere
	Temp65Die1, Temp90Die1 thermal.Celsius // processor-die peak
	PeakFreq90GHz          float64
	MeanCheckerFreqGHz     float64 // demand under the 1.4 GHz cap
	SlowdownPct            float64 // leading-core slowdown from the cap
	// Constant-thermal comparison.
	ConstThermalFreq65GHz, ConstThermalFreq90GHz float64
	ConstThermalLoss65Pct, ConstThermalLoss90Pct float64
	// Error-resilience deltas.
	StageErrProb65, StageErrProb90 float64
	MBU65, MBU90                   float64
}

// Section4Manifest declares the capped and uncapped RMT windows, the
// baselines, and the suite activity. The 90 nm frequency cap is a pure
// function of the technology model, so it is resolved here; the
// constant-thermal IPC windows are temperature-derived and computed on
// demand.
func Section4Manifest(q Quality) []RunKey {
	keys := activityKeys(q, L2DA)
	keys = append(keys, suiteRMTKeys(q, L2DA, 2.0)...)
	if delay, err := tech.DelayScale(tech.Node90, tech.Node65); err == nil {
		peak90 := math.Floor(2.0/delay*10) / 10
		keys = append(keys, suiteRMTKeys(q, L2DA, peak90)...)
	}
	return keys
}

// Section4 regenerates the §4 heterogeneous-die evaluation.
func Section4(s *Session) (Section4Result, error) {
	var res Section4Result
	res.TopBanks65 = floorplan.DefaultOptions().TopDieBanks
	res.TopBanks90 = floorplan.Options90nm().TopDieBanks

	m65 := power.NewCheckerModel(power.CheckerPessimisticW)
	m90, err := m65.OnNode(tech.Node90)
	if err != nil {
		return res, err
	}
	res.Checker65W = m65.NominalW
	res.Checker90W = m90.NominalW

	delay, err := tech.DelayScale(tech.Node90, tech.Node65)
	if err != nil {
		return res, err
	}
	res.PeakFreq90GHz = math.Floor(2.0/delay*10) / 10 // 1.4 GHz

	act, rate6, err := s.SuiteActivity(L2DA)
	if err != nil {
		return res, err
	}
	rate15 := rate6 * 6 / 15

	// Checker demand and slowdown under the 1.4 GHz cap; also collect
	// the DFS operating points that set the *actual* dissipation.
	suite := s.Q.Suite()
	n := float64(len(suite))
	var ipcCap, ipcBase, mean65GHz, util65, util90 float64
	for _, b := range suite {
		capped, err := s.RMT(b.Profile.Name, L2DA, res.PeakFreq90GHz)
		if err != nil {
			return res, err
		}
		free, err := s.RMT(b.Profile.Name, L2DA, 2.0)
		if err != nil {
			return res, err
		}
		alone, err := s.Leading(b.Profile.Name, L2DA, nuca.DistributedSets, 0)
		if err != nil {
			return res, err
		}
		res.MeanCheckerFreqGHz += capped.MeanFreqGHz / n
		mean65GHz += free.MeanFreqGHz / n
		util65 += free.CheckerUtil / n
		util90 += capped.CheckerUtil / n
		ipcCap += capped.Lead.IPC() / n
		ipcBase += alone.IPC() / n
	}
	res.SlowdownPct = (1 - ipcCap/ipcBase) * 100
	res.Actual65W = m65.Power(mean65GHz/2.0, util65)
	res.Actual90W = m90.Power(res.MeanCheckerFreqGHz/2.0, util90)

	t65, err := s.SolveThermal(ThermalCase{Model: M3D2A, Act: act, L2Rate: rate15, CheckerW: res.Actual65W})
	if err != nil {
		return res, err
	}
	lkg90, err := tech.ScalePower(tech.Node90, tech.Node65)
	if err != nil {
		return res, err
	}
	t90, err := s.SolveThermal(ThermalCase{
		Model: M3D2A, Opt: floorplan.Options90nm(),
		Act: act, L2Rate: rate15, CheckerW: res.Actual90W, TopLeakScale: lkg90.Leakage,
	})
	if err != nil {
		return res, err
	}
	res.Temp65, res.Temp90 = t65.PeakC, t90.PeakC
	res.Temp65Die1, res.Temp90Die1 = t65.PeakDie1C, t90.PeakDie1C

	// Constant-thermal comparison against the 2d-a baseline.
	base, err := s.SolveThermal(ThermalCase{Model: M2DA, Act: act, L2Rate: rate6})
	if err != nil {
		return res, err
	}
	freqFor := func(peak thermal.Celsius) float64 {
		if peak <= base.PeakC {
			return 2.0
		}
		fRel := math.Cbrt(float64((base.PeakC - thermal.AmbientC) / (peak - thermal.AmbientC)))
		return math.Floor(fRel*2.0*10+0.5) / 10
	}
	res.ConstThermalFreq65GHz = freqFor(t65.PeakC)
	res.ConstThermalFreq90GHz = freqFor(t90.PeakC)
	loss := func(fGHz float64) (float64, error) {
		fRel := fGHz / 2.0
		memLat := int(float64(ooo.Default().MemLatencyCycles)*fRel + 0.5)
		var ipc, ipcB float64
		for _, b := range suite {
			r, err := s.Leading(b.Profile.Name, L3D2A, nuca.DistributedSets, memLat)
			if err != nil {
				return 0, err
			}
			rb, err := s.Leading(b.Profile.Name, L2DA, nuca.DistributedSets, 0)
			if err != nil {
				return 0, err
			}
			ipc += r.IPC() / n
			ipcB += rb.IPC() / n
		}
		return (1 - ipc*fRel/ipcB) * 100, nil
	}
	if res.ConstThermalLoss65Pct, err = loss(res.ConstThermalFreq65GHz); err != nil {
		return res, err
	}
	if res.ConstThermalLoss90Pct, err = loss(res.ConstThermalFreq90GHz); err != nil {
		return res, err
	}

	// Error resilience: per-stage timing error probability when each die
	// runs with the same 10% relative timing slack (at the DFS operating
	// points both probabilities underflow to 0 — the older process's
	// lower variability shows at tight slack, which is where it
	// matters: frequency ramps under bursty demand).
	inj65 := fault.NewTimingInjector(tech.Node65, 495, 1, 1)
	inj90 := fault.NewTimingInjector(tech.Node90, 495*delay, 1, 1)
	res.StageErrProb65 = inj65.ExpectedStageErrorProb(495 * 1.1)
	res.StageErrProb90 = inj90.ExpectedStageErrorProb(495 * delay * 1.1)
	if res.MBU65, err = tech.NodeMBU(tech.Node65); err != nil {
		return res, err
	}
	if res.MBU90, err = tech.NodeMBU(tech.Node90); err != nil {
		return res, err
	}
	return res, nil
}

// String renders §4.
func (r Section4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 4: Heterogeneous (90 nm) checker die\n")
	fmt.Fprintf(&b, "  checker nominal power: %.1f W @65nm → %.1f W @90nm (paper: 14.5 → 23.7)\n", r.Checker65W, r.Checker90W)
	fmt.Fprintf(&b, "  actual DFS-throttled power: %.1f W @65nm → %.1f W @90nm\n", r.Actual65W, r.Actual90W)
	fmt.Fprintf(&b, "  top-die L2: %d banks @65nm → %d banks @90nm (paper: 9 MB → ≈5 MB)\n", r.TopBanks65, r.TopBanks90)
	fmt.Fprintf(&b, "  3d-2a peak temp: %.1f °C @65nm → %.1f °C @90nm (Δ %.1f; paper: −4)\n", r.Temp65, r.Temp90, r.Temp90-r.Temp65)
	fmt.Fprintf(&b, "  processor-die peak: %.1f °C @65nm → %.1f °C @90nm (Δ %.1f)\n", r.Temp65Die1, r.Temp90Die1, r.Temp90Die1-r.Temp65Die1)
	fmt.Fprintf(&b, "  90nm peak frequency: %.1f GHz (paper: 1.4)\n", r.PeakFreq90GHz)
	fmt.Fprintf(&b, "  mean checker frequency under cap: %.2f GHz (paper: needs ≈1.26)\n", r.MeanCheckerFreqGHz)
	fmt.Fprintf(&b, "  leading-core slowdown from the cap: %.1f%% (paper: 3%%)\n", r.SlowdownPct)
	fmt.Fprintf(&b, "  constant-thermal: 65nm %.1f GHz → loss %.1f%%; 90nm %.1f GHz → loss %.1f%% (paper: 8%% vs 4%%)\n",
		r.ConstThermalFreq65GHz, r.ConstThermalLoss65Pct, r.ConstThermalFreq90GHz, r.ConstThermalLoss90Pct)
	fmt.Fprintf(&b, "  per-stage timing-error prob at 10%% slack: %.2e @65nm vs %.2e @90nm\n",
		r.StageErrProb65, r.StageErrProb90)
	fmt.Fprintf(&b, "  MBU probability: %.4f @65nm vs %.4f @90nm\n", r.MBU65, r.MBU90)
	return b.String()
}
