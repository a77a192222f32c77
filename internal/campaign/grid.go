package campaign

import (
	"fmt"
	"math"
	"strconv"

	"r3d/internal/fault"
	"r3d/internal/nuca"
	"r3d/internal/tech"
	"r3d/internal/trace"
)

// Grid describes a Cartesian campaign: benches × seeds × leading rates
// × RF rates, all sharing the window, node and timing settings. Trials
// expand in a fixed nested order (bench, seed, lead rate, RF rate) with
// IDs derived from the coordinates, so the same Grid always yields the
// same specs — the property journal resume fingerprints.
type Grid struct {
	Benches   []string
	Seeds     []int64
	LeadRates []float64 // leading-core upsets per M cycles (accelerated)
	RFRates   []float64 // trailer-RF upsets per M cycles (accelerated)

	Instructions uint64
	// CycleBudget caps each trial's leading cycles (0 selects
	// fault.DefaultCycleBudget(Instructions)).
	CycleBudget uint64

	Node tech.Node
	// Timing-error injection, applied uniformly when enabled.
	EnableTiming bool
	CritPathPs   float64
	TimingAccel  float64

	L2            string
	CheckerMaxGHz float64
}

// Trials expands the grid. Every axis must be non-empty; rate axes
// default to a single zero entry so a soft-error-only or timing-only
// grid stays terse. Unknown benchmarks or L2 organizations and a
// negative or NaN checker cap are rejected here, before any trial runs.
func (g Grid) Trials() ([]TrialSpec, error) {
	if len(g.Benches) == 0 {
		return nil, fmt.Errorf("campaign: grid without benchmarks")
	}
	for _, bench := range g.Benches {
		if _, err := trace.ByName(bench); err != nil {
			return nil, err
		}
	}
	if _, err := nuca.ParseOrg(g.L2); err != nil {
		return nil, err
	}
	if g.CheckerMaxGHz < 0 || math.IsNaN(g.CheckerMaxGHz) {
		return nil, fmt.Errorf("campaign: invalid checker cap %v GHz", g.CheckerMaxGHz)
	}
	if len(g.Seeds) == 0 {
		return nil, fmt.Errorf("campaign: grid without seeds")
	}
	if g.Instructions == 0 {
		return nil, fmt.Errorf("campaign: grid without an instruction window")
	}
	leadRates := g.LeadRates
	if len(leadRates) == 0 {
		leadRates = []float64{0}
	}
	rfRates := g.RFRates
	if len(rfRates) == 0 {
		rfRates = []float64{0}
	}
	budget := g.CycleBudget
	if budget == 0 {
		budget = fault.DefaultCycleBudget(g.Instructions)
	}
	var specs []TrialSpec
	for _, bench := range g.Benches {
		for _, seed := range g.Seeds {
			for _, lead := range leadRates {
				for _, rf := range rfRates {
					specs = append(specs, TrialSpec{
						ID:            fmt.Sprintf("%s/s%d/l%s/r%s", bench, seed, fmtRate(lead), fmtRate(rf)),
						Bench:         bench,
						L2:            g.L2,
						CheckerMaxGHz: g.CheckerMaxGHz,
						Config: fault.CampaignConfig{
							Instructions:         g.Instructions,
							CycleBudget:          budget,
							LeadSoftPerMCycle:    lead,
							CheckerSoftPerMCycle: rf,
							TimingNode:           g.Node,
							EnableTiming:         g.EnableTiming,
							CritPathPs:           g.CritPathPs,
							TimingAccel:          g.TimingAccel,
							Seed:                 seed,
						},
					})
				}
			}
		}
	}
	return specs, nil
}

// SelfTestTrial returns a deliberately-wedged trial (checker-die
// livelock injected after the given cycle) to append to a grid: its
// expected outcome is Status hung with ReasonNoProgress, which
// exercises the watchdog end-to-end inside a production campaign.
func (g Grid) SelfTestTrial(afterCycles uint64) (TrialSpec, error) {
	specs, err := g.Trials()
	if err != nil {
		return TrialSpec{}, err
	}
	sp := specs[0]
	sp.ID = "selftest/livelock"
	sp.Config.LivelockAfterCycles = afterCycles
	return sp, nil
}

// fmtRate renders a rate axis coordinate compactly and unambiguously
// for trial IDs.
func fmtRate(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
