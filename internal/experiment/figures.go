package experiment

import (
	"fmt"
	"strings"

	"r3d/internal/nuca"
	"r3d/internal/power"
	"r3d/internal/stats"
	"r3d/internal/tech"
	"r3d/internal/thermal"
)

// CheckerPowerSweep is the Figure 4 x-axis.
var CheckerPowerSweep = []float64{2, 5, 7, 10, 15, 20, 25}

// Figure4Row is one checker-power point. T3D2A is the hottest cell on
// either die; T3D2ADie1 is the processor die alone (the checker on the
// stacked die runs hotter by the F2F interface drop — see
// EXPERIMENTS.md on which the paper most plausibly reports).
type Figure4Row struct {
	CheckerW  float64
	T2D2A     thermal.Celsius
	T3D2A     thermal.Celsius
	T3D2ADie1 thermal.Celsius
}

// Figure4Result is the Figure 4 dataset: peak temperature versus checker
// power for the 2d-2a and 3d-2a organizations against the 2d-a baseline
// line.
type Figure4Result struct {
	Baseline2DA thermal.Celsius
	Rows        []Figure4Row
}

// Figure4Manifest declares the suite-activity windows behind the power
// maps (the thermal sweep itself is prefetched through the session's
// thermal engine at render time).
func Figure4Manifest(q Quality) []RunKey {
	return activityKeys(q, L2DA)
}

// Figure4 regenerates Figure 4 using suite-average activity. The
// 15-case thermal sweep is prefetched across the session's workers;
// rendering then reads the memoized snapshots.
func Figure4(s *Session) (Figure4Result, error) {
	act, rate6, err := s.SuiteActivity(L2DA)
	if err != nil {
		return Figure4Result{}, err
	}
	rate15 := rate6 * 6 / 15 // same traffic spread over more banks

	cases := []ThermalCase{{Model: M2DA, Act: act, L2Rate: rate6}}
	for _, w := range CheckerPowerSweep {
		cases = append(cases,
			ThermalCase{Model: M2D2A, Act: act, L2Rate: rate15, CheckerW: w},
			ThermalCase{Model: M3D2A, Act: act, L2Rate: rate15, CheckerW: w})
	}
	if err := s.PrefetchThermal(cases); err != nil {
		return Figure4Result{}, err
	}

	base, err := s.SolveThermal(ThermalCase{Model: M2DA, Act: act, L2Rate: rate6})
	if err != nil {
		return Figure4Result{}, err
	}
	res := Figure4Result{Baseline2DA: base.PeakC}
	for _, w := range CheckerPowerSweep {
		t2, err := s.SolveThermal(ThermalCase{Model: M2D2A, Act: act, L2Rate: rate15, CheckerW: w})
		if err != nil {
			return Figure4Result{}, err
		}
		t3, err := s.SolveThermal(ThermalCase{Model: M3D2A, Act: act, L2Rate: rate15, CheckerW: w})
		if err != nil {
			return Figure4Result{}, err
		}
		res.Rows = append(res.Rows, Figure4Row{CheckerW: w, T2D2A: t2.PeakC, T3D2A: t3.PeakC, T3D2ADie1: t3.PeakDie1C})
	}
	return res, nil
}

// String renders the Figure 4 series.
func (r Figure4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Thermal overhead of the 3D checker (peak °C)\n")
	fmt.Fprintf(&b, "  2d-a baseline: %.1f °C\n", r.Baseline2DA)
	fmt.Fprintf(&b, "  %-12s %8s %8s %10s %12s\n", "checker (W)", "2d-2a", "3d-2a", "3d-2a die1", "Δdie1 vs 2d-a")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12.0f %8.1f %8.1f %10.1f %+12.1f\n",
			row.CheckerW, row.T2D2A, row.T3D2A, row.T3D2ADie1, row.T3D2ADie1-r.Baseline2DA)
	}
	return b.String()
}

// Figure5Row is one benchmark's peak temperatures across the five
// configurations of the paper's Figure 5.
type Figure5Row struct {
	Bench    string
	T2DA     thermal.Celsius
	T2D2A7W  thermal.Celsius
	T3D2A7W  thermal.Celsius
	T2D2A15W thermal.Celsius
	T3D2A15W thermal.Celsius
}

// Figure5Result is the per-benchmark thermal dataset.
type Figure5Result struct {
	Rows []Figure5Row
}

// Figure5Manifest declares the per-benchmark activity windows.
func Figure5Manifest(q Quality) []RunKey {
	return activityKeys(q, L2DA)
}

// Figure5 regenerates Figure 5. The per-benchmark 5-case sweeps are
// prefetched across the session's workers as one batch (5·N cases),
// then rendered from the memoized snapshots.
func Figure5(s *Session) (Figure5Result, error) {
	var res Figure5Result
	var batch []ThermalCase
	for _, b := range s.Q.Suite() {
		act, rate6, err := s.BenchActivity(b.Profile.Name, L2DA)
		if err != nil {
			return Figure5Result{}, err
		}
		rate15 := rate6 * 6 / 15
		batch = append(batch,
			ThermalCase{Model: M2DA, Act: act, L2Rate: rate6},
			ThermalCase{Model: M2D2A, Act: act, L2Rate: rate15, CheckerW: power.CheckerOptimisticW},
			ThermalCase{Model: M3D2A, Act: act, L2Rate: rate15, CheckerW: power.CheckerOptimisticW},
			ThermalCase{Model: M2D2A, Act: act, L2Rate: rate15, CheckerW: power.CheckerPessimisticW},
			ThermalCase{Model: M3D2A, Act: act, L2Rate: rate15, CheckerW: power.CheckerPessimisticW})
	}
	if err := s.PrefetchThermal(batch); err != nil {
		return Figure5Result{}, err
	}
	for _, b := range s.Q.Suite() {
		name := b.Profile.Name
		act, rate6, err := s.BenchActivity(name, L2DA)
		if err != nil {
			return Figure5Result{}, err
		}
		rate15 := rate6 * 6 / 15
		row := Figure5Row{Bench: name}
		cases := []struct {
			dst   *thermal.Celsius
			model ChipModel
			rate  float64
			w     float64
		}{
			{&row.T2DA, M2DA, rate6, 0},
			{&row.T2D2A7W, M2D2A, rate15, power.CheckerOptimisticW},
			{&row.T3D2A7W, M3D2A, rate15, power.CheckerOptimisticW},
			{&row.T2D2A15W, M2D2A, rate15, power.CheckerPessimisticW},
			{&row.T3D2A15W, M3D2A, rate15, power.CheckerPessimisticW},
		}
		for _, c := range cases {
			t, err := s.SolveThermal(ThermalCase{Model: c.model, Act: act, L2Rate: c.rate, CheckerW: c.w})
			if err != nil {
				return Figure5Result{}, err
			}
			*c.dst = t.PeakC
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the Figure 5 table.
func (r Figure5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: Per-benchmark peak temperature (°C)\n")
	fmt.Fprintf(&b, "  %-9s %7s %9s %9s %9s %9s\n", "bench", "2d_a", "2d2a_7W", "3d2a_7W", "2d2a_15W", "3d2a_15W")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %7.1f %9.1f %9.1f %9.1f %9.1f\n",
			row.Bench, row.T2DA, row.T2D2A7W, row.T3D2A7W, row.T2D2A15W, row.T3D2A15W)
	}
	return b.String()
}

// Figure6Row is one benchmark's IPC across the four chip models.
type Figure6Row struct {
	Bench    string
	IPC2DA   float64
	IPC2D2A  float64
	IPC3D2A  float64
	IPC3DChk float64 // 3d-checker: RMT system over the 2d-a cache
}

// Figure6Result is the per-benchmark performance dataset.
type Figure6Result struct {
	Rows []Figure6Row
}

// Figure6Manifest declares one leading window per L2 organization plus
// the RMT windows of the 3d-checker column.
func Figure6Manifest(q Quality) []RunKey {
	var keys []RunKey
	for _, l2c := range []L2Config{L2DA, L2D2A, L3D2A} {
		keys = append(keys, suiteLeadKeys(q, l2c, nuca.DistributedSets, 0)...)
	}
	return append(keys, suiteRMTKeys(q, L2DA, 2.0)...)
}

// Figure6 regenerates Figure 6 with the distributed-sets NUCA policy.
func Figure6(s *Session) (Figure6Result, error) {
	var res Figure6Result
	for _, b := range s.Q.Suite() {
		name := b.Profile.Name
		row := Figure6Row{Bench: name}
		for _, c := range []struct {
			dst *float64
			cfg L2Config
		}{
			{&row.IPC2DA, L2DA},
			{&row.IPC2D2A, L2D2A},
			{&row.IPC3D2A, L3D2A},
		} {
			r, err := s.Leading(name, c.cfg, 0, 0)
			if err != nil {
				return Figure6Result{}, err
			}
			*c.dst = r.IPC()
		}
		rmt, err := s.RMT(name, L2DA, 2.0)
		if err != nil {
			return Figure6Result{}, err
		}
		row.IPC3DChk = rmt.Lead.IPC()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Means returns the suite-mean IPC per model (2d-a, 2d-2a, 3d-2a,
// 3d-checker).
func (r Figure6Result) Means() (m2da, m2d2a, m3d2a, m3dchk float64) {
	if len(r.Rows) == 0 {
		return
	}
	n := float64(len(r.Rows))
	for _, row := range r.Rows {
		m2da += row.IPC2DA / n
		m2d2a += row.IPC2D2A / n
		m3d2a += row.IPC3D2A / n
		m3dchk += row.IPC3DChk / n
	}
	return
}

// String renders the Figure 6 table.
func (r Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: Per-benchmark IPC (distributed-sets NUCA)\n")
	fmt.Fprintf(&b, "  %-9s %7s %7s %7s %10s\n", "bench", "2d-a", "2d-2a", "3d-2a", "3d-checker")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %7.2f %7.2f %7.2f %10.2f\n", row.Bench, row.IPC2DA, row.IPC2D2A, row.IPC3D2A, row.IPC3DChk)
	}
	a, c, d, e := r.Means()
	fmt.Fprintf(&b, "  %-9s %7.2f %7.2f %7.2f %10.2f\n", "MEAN", a, c, d, e)
	return b.String()
}

// Figure7Result is the checker-frequency residency histogram aggregated
// over the suite (time-weighted), normalized to the 2 GHz peak.
type Figure7Result struct {
	Fractions []float64 // 10 bins of 0.1·f
	MeanNorm  float64   // mean f_checker / f_lead
	ModeNorm  float64
}

// Figure7Manifest declares the homogeneous-stack RMT windows.
func Figure7Manifest(q Quality) []RunKey {
	return suiteRMTKeys(q, L2DA, 2.0)
}

// Figure7 regenerates the §3.5 frequency histogram.
func Figure7(s *Session) (Figure7Result, error) {
	agg := stats.NewHistogram(0, 1.0001, 10)
	for _, b := range s.Q.Suite() {
		r, err := s.RMT(b.Profile.Name, L2DA, 2.0)
		if err != nil {
			return Figure7Result{}, err
		}
		for i, f := range r.FreqFractions {
			// Weight each benchmark equally (the paper aggregates
			// interval counts across its suite).
			agg.Add(agg.BinCenter(i), f)
		}
	}
	return Figure7Result{
		Fractions: agg.Fractions(),
		MeanNorm:  agg.WeightedMeanValue(),
		ModeNorm:  agg.BinCenter(agg.ModeBin()),
	}, nil
}

// String renders the histogram with ASCII bars.
func (r Figure7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Checker frequency residency (fraction of time)\n")
	for i, f := range r.Fractions {
		lo := float64(i) / float64(len(r.Fractions))
		hi := float64(i+1) / float64(len(r.Fractions))
		fmt.Fprintf(&b, "  %.1f-%.1ff | %-50s %5.1f%%\n", lo, hi, strings.Repeat("#", int(f*100+0.5)), f*100)
	}
	fmt.Fprintf(&b, "  mean %.2ff, mode %.2ff (paper: trailing core ≈0.45f average, histogram peak 0.6f)\n", r.MeanNorm, r.ModeNorm)
	return b.String()
}

// Figure8Row is one process node's normalized per-bit SER.
type Figure8Row struct {
	Node    tech.Node
	Neutron float64
	Alpha   float64
	Total   float64
	ChipSER float64
}

// Figure8Result is the SER scaling dataset.
type Figure8Result struct{ Rows []Figure8Row }

// Figure8 regenerates the SRAM SER scaling figure.
func Figure8() (Figure8Result, error) {
	var res Figure8Result
	for _, n := range []tech.Node{tech.Node180, tech.Node130, tech.Node90, tech.Node65} {
		s, err := tech.PerBitSER(n)
		if err != nil {
			return Figure8Result{}, err
		}
		chip, err := tech.ChipSER(n)
		if err != nil {
			return Figure8Result{}, err
		}
		res.Rows = append(res.Rows, Figure8Row{Node: n, Neutron: s.Neutron, Alpha: s.Alpha, Total: s.Total(), ChipSER: chip})
	}
	return res, nil
}

// String renders the SER table.
func (r Figure8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: SRAM per-bit soft error rate (normalized to 180 nm total)\n")
	fmt.Fprintf(&b, "  %-7s %8s %8s %8s %10s\n", "node", "neutron", "alpha", "total", "chip SER")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-7s %8.3f %8.3f %8.3f %10.2f\n", row.Node, row.Neutron, row.Alpha, row.Total, row.ChipSER)
	}
	return b.String()
}

// Figure9Row is one (Qcrit, MBU probability) sample.
type Figure9Row struct {
	QcritFC float64
	Prob    float64
}

// Figure9Result is the MBU probability curve plus the per-node points.
type Figure9Result struct {
	Curve []Figure9Row
	Nodes map[tech.Node]float64
}

// Figure9 regenerates the MBU probability figure.
func Figure9() (Figure9Result, error) {
	res := Figure9Result{Nodes: map[tech.Node]float64{}}
	for q := 16.0; q >= 1.0; q -= 1.0 {
		res.Curve = append(res.Curve, Figure9Row{QcritFC: q, Prob: tech.DefaultMBUModel.Probability(q)})
	}
	for _, n := range []tech.Node{tech.Node90, tech.Node65, tech.Node45} {
		p, err := tech.NodeMBU(n)
		if err != nil {
			return Figure9Result{}, err
		}
		res.Nodes[n] = p
	}
	return res, nil
}

// String renders the MBU curve.
func (r Figure9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: Multi-bit upset probability vs critical charge\n")
	for _, row := range r.Curve {
		fmt.Fprintf(&b, "  %5.1f fC | %-50s %.4f\n", row.QcritFC,
			strings.Repeat("#", int(row.Prob*500+0.5)), row.Prob)
	}
	for _, n := range []tech.Node{tech.Node90, tech.Node65, tech.Node45} {
		fmt.Fprintf(&b, "  at %s Qcrit: P(MBU) = %.4f\n", n, r.Nodes[n])
	}
	return b.String()
}
