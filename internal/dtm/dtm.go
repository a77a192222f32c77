// Package dtm implements dynamic thermal management over the transient
// thermal model: a sensor-driven DVFS controller that throttles the chip
// when the hottest cell crosses a trigger threshold and releases the
// throttle once it cools. The paper invokes exactly this mechanism in
// §3.2 — "higher temperatures will either require better cooling
// capacities or dynamic thermal management (DTM) that can lead to
// performance loss" — and the DTM experiment quantifies that loss for
// the 3D reliable processor against the 2d-a baseline.
//
// The controller works on power-map phases (per-die W/cell grids at the
// nominal frequency); throttling scales the maps by the cubic DVFS
// factor (voltage tracks frequency, §3.3). Performance loss is the
// time-weighted frequency deficit — an upper bound, since memory-bound
// phases lose less (§3.3); the experiment reports it alongside the
// residency statistics.
package dtm

import (
	"fmt"

	"r3d/internal/power"
	"r3d/internal/stats"
	"r3d/internal/thermal"
)

// Policy is the throttling policy.
type Policy struct {
	// TriggerC engages the throttle; ReleaseC (must be lower) disengages
	// it — the hysteresis band prevents oscillation.
	TriggerC, ReleaseC thermal.Celsius
	// StepGHz is the frequency adjustment per control interval.
	StepGHz float64
	// MinGHz/MaxGHz bound the DVFS range.
	MinGHz, MaxGHz float64
	// IntervalMs is the control (sensor sampling) period.
	IntervalMs float64
}

// DefaultPolicy returns an 85 °C trigger policy over the paper's 2 GHz
// operating point with 100 MHz steps and a 1 ms control loop.
func DefaultPolicy() Policy {
	return Policy{TriggerC: 85, ReleaseC: 82, StepGHz: 0.1, MinGHz: 1.0, MaxGHz: 2.0, IntervalMs: 1}
}

// Validate reports malformed policies.
func (p Policy) Validate() error {
	if p.TriggerC <= p.ReleaseC {
		return fmt.Errorf("dtm: trigger %.1f must exceed release %.1f", p.TriggerC, p.ReleaseC)
	}
	if p.StepGHz <= 0 || p.MinGHz <= 0 || p.MaxGHz <= p.MinGHz {
		return fmt.Errorf("dtm: bad frequency range")
	}
	if p.IntervalMs <= 0 {
		return fmt.Errorf("dtm: non-positive control interval")
	}
	return nil
}

// Phase is one workload phase: per-die power grids at the nominal
// frequency, held for Duration.
type Phase struct {
	DurationMs float64
	// Grids holds one power map per heat layer (die 1 first; nil second
	// entry for 2D stacks).
	Grids [][][]float64
}

// Stats accumulates a DTM run.
type Stats struct {
	TimeMs        float64
	ThrottledMs   float64
	MeanFreqGHz   float64         // time-weighted
	PeakC         thermal.Celsius // hottest sample ever seen
	FinalC        thermal.Celsius
	Residency     *stats.Histogram // frequency residency, GHz
	Interventions uint64           // throttle engagements
}

// PerfLossPct returns the time-weighted frequency deficit relative to
// the maximum frequency, in percent.
func (s Stats) PerfLossPct(maxGHz float64) float64 {
	if maxGHz <= 0 {
		return 0
	}
	return (1 - s.MeanFreqGHz/maxGHz) * 100
}

// Controller is one DTM instance.
type Controller struct {
	tr      *thermal.Transient
	pol     Policy
	freqGHz float64
	// throttled latches the hysteresis state.
	throttled bool
	st        Stats
	weighted  float64 // ∫f dt, ms·GHz
}

// New builds a controller over a fresh transient model of the given
// stack.
func New(cfg thermal.Config, pol Policy) (*Controller, error) {
	return NewFromModel(thermal.NewModel(cfg), pol)
}

// NewFromModel builds a controller over a shared immutable thermal
// model, so repeated DTM runs on the same stack skip the conductance
// precompute. The controller owns a private transient state.
func NewFromModel(m *thermal.Model, pol Policy) (*Controller, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		tr:      thermal.NewTransientFromModel(m),
		pol:     pol,
		freqGHz: pol.MaxGHz,
	}
	c.st.Residency = stats.NewHistogram(pol.MinGHz-pol.StepGHz/2, pol.MaxGHz+pol.StepGHz/2, int((pol.MaxGHz-pol.MinGHz)/pol.StepGHz)+1)
	return c, nil
}

// FreqGHz returns the current operating frequency.
func (c *Controller) FreqGHz() float64 { return c.freqGHz }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats {
	s := c.st
	if s.TimeMs > 0 {
		s.MeanFreqGHz = c.weighted / s.TimeMs
	}
	s.FinalC = c.tr.State().PeakAllC()
	return s
}

// RunPhase holds the phase's power maps for its duration, sampling the
// sensor and adjusting frequency every control interval.
func (c *Controller) RunPhase(p Phase) error {
	if p.DurationMs <= 0 {
		return fmt.Errorf("dtm: non-positive phase duration")
	}
	if len(p.Grids) == 0 {
		return fmt.Errorf("dtm: phase without power grids")
	}
	remaining := p.DurationMs
	for remaining > 0 {
		step := c.pol.IntervalMs
		if step > remaining {
			step = remaining
		}
		remaining -= step

		// Apply the throttled power maps.
		scale := power.DVFSScale(c.freqGHz / c.pol.MaxGHz)
		for die, g := range p.Grids {
			if g == nil {
				continue
			}
			scaled := make([][]float64, len(g))
			for y := range g {
				scaled[y] = make([]float64, len(g[y]))
				for x := range g[y] {
					scaled[y][x] = g[y][x] * scale
				}
			}
			if err := c.tr.State().SetPower(die, scaled); err != nil {
				return err
			}
		}
		if err := c.tr.Step(step * 1e9); err != nil { // ms → ps
			return err
		}

		// Sense and act.
		peak := c.tr.State().PeakAllC()
		if peak > c.st.PeakC {
			c.st.PeakC = peak
		}
		switch {
		case peak > c.pol.TriggerC:
			if !c.throttled {
				c.st.Interventions++
			}
			c.throttled = true
			if c.freqGHz > c.pol.MinGHz {
				c.freqGHz -= c.pol.StepGHz
				if c.freqGHz < c.pol.MinGHz {
					c.freqGHz = c.pol.MinGHz
				}
			}
		case peak < c.pol.ReleaseC:
			c.throttled = false
			if c.freqGHz < c.pol.MaxGHz {
				c.freqGHz += c.pol.StepGHz
				if c.freqGHz > c.pol.MaxGHz {
					c.freqGHz = c.pol.MaxGHz
				}
			}
		}

		c.st.TimeMs += step
		c.weighted += step * c.freqGHz
		if c.throttled {
			c.st.ThrottledMs += step
		}
		c.st.Residency.Add(c.freqGHz, step)
	}
	return nil
}
