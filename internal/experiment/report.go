package experiment

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"r3d/internal/runsched"
)

// RunTiming is the per-window line of an engine report: wall-clock cost
// next to simulated work, so slow windows are attributable.
type RunTiming struct {
	Key       string  `json:"key"`
	WallMS    float64 `json:"wall_ms"`
	SimCycles uint64  `json:"sim_cycles"`
	Err       bool    `json:"err,omitempty"`
}

// EngineReport is the session's observability snapshot: scheduler
// counters plus one timing row per computed window, in completion
// order (which is deterministic for prefetched batches — canonical key
// order — and request order for on-demand windows).
type EngineReport struct {
	Workers int            `json:"workers"`
	Stats   runsched.Stats `json:"stats"`
	Thermal ThermalStats   `json:"thermal"`
	Runs    []RunTiming    `json:"runs"`
}

// EngineReport builds the current report from the run engine's records.
func (s *Session) EngineReport() EngineReport {
	rep := EngineReport{Workers: s.eng.Workers(), Stats: s.eng.Stats(), Thermal: s.ThermalStats()}
	for _, rec := range s.eng.Records() {
		rt := RunTiming{
			Key:    rec.Key.String(),
			WallMS: float64(rec.Nanos) / 1e6,
			Err:    rec.Err,
		}
		if !rec.Err {
			if v, err := s.eng.Cached(rec.Key); err == nil {
				if rec.Key.Kind == KindLeading {
					rt.SimCycles = v.lead.Stats.Activity.Cycles
				} else {
					rt.SimCycles = v.rmt.Lead.Activity.Cycles
				}
			}
		}
		rep.Runs = append(rep.Runs, rt)
	}
	return rep
}

// JSON renders the report as indented JSON.
func (r EngineReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the human-readable report: counters, then the slowest
// windows (all of them when ten or fewer).
func (r EngineReport) String() string {
	var b strings.Builder
	st := r.Stats
	fmt.Fprintf(&b, "engine: %d workers, %d computed (%d err), %d cache hits, %d singleflight joins\n",
		r.Workers, st.Computed, st.Errors, st.Hits, st.Joins)
	fmt.Fprintf(&b, "engine: batches requested %d keys, %d deduplicated; summed worker compute %.1f ms\n",
		st.BatchRequested, st.BatchDeduped, float64(st.ComputeNanos)/1e6)
	if th := r.Thermal; th.Solves > 0 {
		fmt.Fprintf(&b, "thermal: %d solves, %d snapshot hits, %d joins; %d fine + %d coarse SOR iters\n",
			th.Solves, th.Hits, th.Joins, th.FineIters, th.CoarseIters)
	}
	runs := make([]RunTiming, len(r.Runs))
	copy(runs, r.Runs)
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].WallMS > runs[j].WallMS })
	show := len(runs)
	if show > 10 {
		show = 10
		fmt.Fprintf(&b, "engine: slowest %d of %d runs:\n", show, len(runs))
	} else if show > 0 {
		fmt.Fprintf(&b, "engine: %d runs:\n", show)
	}
	var cycles uint64
	for _, rt := range runs {
		cycles += rt.SimCycles
	}
	for _, rt := range runs[:show] {
		status := ""
		if rt.Err {
			status = "  ERR"
		}
		fmt.Fprintf(&b, "  %8.1f ms  %12d cycles  %s%s\n", rt.WallMS, rt.SimCycles, rt.Key, status)
	}
	if len(runs) > 0 {
		fmt.Fprintf(&b, "engine: %d simulated cycles across %d windows\n", cycles, len(runs))
	}
	return b.String()
}
