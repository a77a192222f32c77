package power

import (
	"math"
	"testing"

	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/tech"
)

func runBench(t *testing.T, name string) (ooo.Stats, *nuca.Cache) {
	t.Helper()
	c, err := ooo.ForBench(name, 17, ooo.Default(), nuca.Config2DA(nuca.DistributedSets))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(120000)
	c.ResetStats()
	c.SetFetchBudget(^uint64(0))
	for c.Stats().Instructions < 120000 {
		c.Step(4)
	}
	return c.Stats(), c.L2()
}

func TestLeadingCorePowerCalibration(t *testing.T) {
	// Table 2: the leading core averages ≈35 W across SPEC2k. Check a
	// representative mix lands in a sane band around it.
	var total float64
	names := []string{"gzip", "swim", "mesa", "mcf", "vortex"}
	for _, n := range names {
		s, _ := runBench(t, n)
		act := ActivityFromStats(s, ooo.Default())
		p := LeadingCorePower(act, 1, 1).Total()
		if p < 15 || p > 55 {
			t.Errorf("%s: leading core power %.1f W outside sanity band", n, p)
		}
		total += p
	}
	avg := total / float64(len(names))
	if math.Abs(avg-LeadingCoreAvgW) > 9 {
		t.Errorf("mean leading-core power %.1f W, want ≈%v W (Table 2; full-suite windows run hotter)", avg, LeadingCoreAvgW)
	}
}

func TestActivityBounds(t *testing.T) {
	s, _ := runBench(t, "gzip")
	act := ActivityFromStats(s, ooo.Default())
	if len(act) == 0 {
		t.Fatal("no activity derived")
	}
	for u, a := range act {
		if a < 0 || a > 1 {
			t.Errorf("unit %s activity %v outside [0,1]", u, a)
		}
	}
	if ActivityFromStats(ooo.Stats{}, ooo.Default()) == nil {
		t.Error("zero stats must produce an empty map, not nil panic path")
	}
}

func TestIdlePowerIsTurnoffFraction(t *testing.T) {
	p := LeadingCorePower(Activity{}, 1, 1)
	var peak float64
	for _, u := range LeadingUnits() {
		peak += u.PeakW
	}
	if got, want := p.Total(), peak*TurnoffFactor; math.Abs(got-want) > 1e-9 {
		t.Errorf("idle power %.2f, want %.2f (turn-off factor)", got, want)
	}
}

func TestFullActivityIsPeak(t *testing.T) {
	act := Activity{}
	var peak float64
	for _, u := range LeadingUnits() {
		act[u.Name] = 1
		peak += u.PeakW
	}
	if got := LeadingCorePower(act, 1, 1).Total(); math.Abs(got-peak) > 1e-9 {
		t.Errorf("full-activity power %.2f, want peak %.2f", got, peak)
	}
}

func TestFrequencyVoltageScaling(t *testing.T) {
	act := Activity{UnitFetch: 0.5}
	base := LeadingCorePower(act, 1, 1).Total()
	half := LeadingCorePower(act, 0.5, 1).Total()
	if math.Abs(half-base/2) > 1e-9 {
		t.Errorf("frequency scaling not linear: %v vs %v", half, base/2)
	}
	lowV := LeadingCorePower(act, 1, 0.9).Total()
	if math.Abs(lowV-base*0.81) > 1e-9 {
		t.Errorf("voltage scaling not quadratic: %v vs %v", lowV, base*0.81)
	}
}

func TestCheckerModelDFS(t *testing.T) {
	m := NewCheckerModel(CheckerPessimisticW)
	full := m.Power(1, 1)
	if math.Abs(full-15) > 1e-9 {
		t.Errorf("full power %.2f, want 15", full)
	}
	slow := m.Power(0.5, 1)
	if slow >= full {
		t.Error("DFS must reduce power")
	}
	// Leakage floor: even at zero frequency the leakage share remains.
	floor := m.Power(0, 0)
	if math.Abs(floor-15*0.3) > 1e-9 {
		t.Errorf("leakage floor %.2f, want %.2f", floor, 15*0.3)
	}
	if m.Power(-1, -1) != floor {
		t.Error("negative inputs must clamp")
	}
}

func TestCheckerOnOlderNode(t *testing.T) {
	// §4: moving the 15 W checker from 65 nm to 90 nm increases dynamic
	// power (×2.21) and decreases leakage (×0.4): 10.5×2.21 + 4.5×0.4 ≈
	// 25 W nominal (the paper reports 14.5 → 23.7 W for its checker).
	m := NewCheckerModel(CheckerPessimisticW)
	old, err := m.OnNode(tech.Node90)
	if err != nil {
		t.Fatal(err)
	}
	if old.NominalW < 23 || old.NominalW > 27 {
		t.Errorf("90nm checker nominal %.1f W, want ≈25 W", old.NominalW)
	}
	if old.DynFrac <= m.DynFrac {
		t.Error("dynamic share must grow on the older node")
	}
	same, err := m.OnNode(tech.Node65)
	if err != nil || same != m {
		t.Error("same-node retarget must be identity")
	}
	if _, err := m.OnNode(tech.Node(33)); err == nil {
		t.Error("unknown node must error")
	}
}

func TestL2BankPower(t *testing.T) {
	idle := L2BankPower(0, 1)
	if math.Abs(idle-L2BankStaticW) > 1e-9 {
		t.Errorf("idle bank power %.3f, want static only", idle)
	}
	busy := L2BankPower(1, 1)
	if math.Abs(busy-(L2BankDynamicW+L2BankStaticW)) > 1e-9 {
		t.Errorf("busy bank power %.3f", busy)
	}
	if L2BankPower(5, 1) != busy {
		t.Error("access rate must clamp at 1")
	}
	if L2BankPower(-1, 1) != idle {
		t.Error("negative rate must clamp at 0")
	}
	// Older process: leakage share scales down (Table 8).
	if L2BankPower(0, 0.4) >= idle {
		t.Error("older-process bank leakage must shrink")
	}
}

func TestL2Powers(t *testing.T) {
	s, l2 := runBench(t, "swim")
	p := L2Powers(l2, s.Activity.Cycles)
	if len(p) != 7 { // 6 banks + routers
		t.Fatalf("got %d entries, want 7", len(p))
	}
	for name, w := range p {
		if w <= 0 {
			t.Errorf("%s power %.3f must be positive", name, w)
		}
	}
	if p.Total() < 6*L2BankStaticW {
		t.Error("total below static floor")
	}
}

func TestDVFSScaleCubic(t *testing.T) {
	if got := DVFSScale(0.95); math.Abs(got-0.857375) > 1e-9 {
		t.Errorf("DVFSScale(0.95) = %v", got)
	}
	if DVFSScale(1) != 1 {
		t.Error("identity broken")
	}
}
