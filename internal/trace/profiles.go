package trace

import "fmt"

// Targets records, for one benchmark, the approximate behaviour the
// synthetic profile is calibrated towards: the paper's Figure 6 IPC
// levels and an L2 miss density consistent with the §3.3 observation
// that moving from a 6 MB to a 15 MB L2 only slightly reduces the suite
// miss rate (1.43 → 1.25 misses per 10k instructions in the paper).
// These are calibration references, not scripted outputs — the simulated
// caches and predictor produce the actual rates. See EXPERIMENTS.md for
// the window-length caveat on absolute miss densities.
type Targets struct {
	IPC          float64 // approximate 2d-a IPC (Figure 6 shape)
	MemoryBound  bool    // L2-miss-dominated benchmark (mcf-like)
	CapSensitive bool    // working set straddles 6 MB vs 15 MB (art-like)
}

// Benchmark couples a profile with its calibration targets.
type Benchmark struct {
	Profile Profile
	Targets Targets
}

// wsSpec packs the four-region working-set arguments.
type wsSpec struct {
	hot, mid, warm, cold       int
	hotFrac, midFrac, warmFrac float64
	coldStride                 int
}

func ws(hot, mid, warm, cold int, hotFrac, midFrac, warmFrac float64, stride int) wsSpec {
	return wsSpec{hot: hot, mid: mid, warm: warm, cold: cold,
		hotFrac: hotFrac, midFrac: midFrac, warmFrac: warmFrac, coldStride: stride}
}

// Suite returns the 19 SPEC2k-named benchmarks of the paper's Figures 5
// and 6 in the paper's (alphabetical) order.
func Suite() []Benchmark {
	return []Benchmark{
		{fpProf("ammp", 0.27, 0.09, 0.11, 0.55, 12, ws(8<<10, 128<<10, 0, 16<<20, 0.934, 0.06, 0, 16), 4.0), Targets{IPC: 1.2}},
		{fpProf("applu", 0.30, 0.10, 0.03, 0.65, 30, ws(8<<10, 192<<10, 0, 64<<20, 0.912, 0.08, 0, 16), 9.0), Targets{IPC: 1.4}},
		{fpProf("apsi", 0.26, 0.12, 0.06, 0.55, 20, ws(8<<10, 128<<10, 0, 16<<20, 0.93, 0.06, 0, 8), 6.0), Targets{IPC: 1.5}},
		{fpProf("art", 0.30, 0.07, 0.10, 0.45, 10, ws(12<<10, 256<<10, 7<<20, 0, 0.66, 0.16, 0.18, 0), 3.0), Targets{IPC: 0.5, MemoryBound: true, CapSensitive: true}},
		{intProf("bzip2", 0.26, 0.11, 0.13, 10, ws(8<<10, 128<<10, 0, 24<<20, 0.925, 0.06, 0, 8), 8.0, 0.08, 0.93), Targets{IPC: 1.5}},
		{intProf("eon", 0.28, 0.15, 0.10, 24, ws(10<<10, 64<<10, 0, 0, 0.975, 0.025, 0, 0), 10.0, 0.05, 0.96), Targets{IPC: 2.0}},
		{fpProf("equake", 0.33, 0.09, 0.10, 0.50, 8, ws(8<<10, 256<<10, 0, 32<<20, 0.89, 0.10, 0, 8), 3.0), Targets{IPC: 0.9}},
		{fpProf("fma3d", 0.28, 0.13, 0.08, 0.55, 14, ws(8<<10, 160<<10, 0, 16<<20, 0.925, 0.07, 0, 8), 4.0), Targets{IPC: 1.3}},
		{fpProf("galgel", 0.28, 0.08, 0.05, 0.60, 40, ws(10<<10, 64<<10, 0, 0, 0.97, 0.03, 0, 0), 9.0), Targets{IPC: 2.2}},
		{intProf("gap", 0.25, 0.12, 0.10, 16, ws(10<<10, 96<<10, 0, 16<<20, 0.955, 0.04, 0, 8), 8.5, 0.07, 0.94), Targets{IPC: 1.7}},
		{intProf("gzip", 0.22, 0.10, 0.12, 14, ws(10<<10, 96<<10, 0, 4<<20, 0.955, 0.04, 0, 8), 8.0, 0.06, 0.95), Targets{IPC: 1.8}},
		{fpProf("lucas", 0.24, 0.10, 0.02, 0.70, 18, ws(8<<10, 192<<10, 0, 48<<20, 0.90, 0.09, 0, 8), 5.0), Targets{IPC: 1.1}},
		{intProf("mcf", 0.35, 0.09, 0.17, 4, ws(12<<10, 512<<10, 0, 160<<20, 0.706, 0.29, 0, 64), 2.2, 0.18, 0.88), Targets{IPC: 0.3, MemoryBound: true}},
		{fpProf("mesa", 0.24, 0.14, 0.08, 0.45, 22, ws(10<<10, 40<<10, 0, 0, 0.985, 0.015, 0, 0), 8.0), Targets{IPC: 2.2}},
		{fpProf("swim", 0.28, 0.14, 0.02, 0.70, 40, ws(8<<10, 320<<10, 0, 96<<20, 0.87, 0.12, 0, 16), 9.0), Targets{IPC: 1.2, MemoryBound: true}},
		{intProf("twolf", 0.26, 0.09, 0.15, 6, ws(8<<10, 160<<10, 0, 2<<20, 0.92, 0.075, 0, 8), 3.5, 0.14, 0.90), Targets{IPC: 1.0}},
		{intProf("vortex", 0.27, 0.16, 0.10, 18, ws(10<<10, 96<<10, 0, 8<<20, 0.96, 0.035, 0, 8), 11.0, 0.05, 0.95), Targets{IPC: 1.9}},
		{intProf("vpr", 0.28, 0.10, 0.12, 7, ws(8<<10, 160<<10, 0, 2<<20, 0.925, 0.07, 0, 8), 4.0, 0.12, 0.91), Targets{IPC: 1.2}},
		{fpProf("wupwise", 0.24, 0.11, 0.05, 0.60, 24, ws(10<<10, 64<<10, 0, 16<<20, 0.965, 0.03, 0, 8), 10.0), Targets{IPC: 2.0}},
	}
}

func baseProf(name string, ld, st, br float64, trip int, w wsSpec, dep float64) Profile {
	return Profile{
		Name:         name,
		LoadFrac:     ld,
		StoreFrac:    st,
		BranchFrac:   br,
		BranchSites:  96,
		LoopFrac:     0.35,
		PatternFrac:  0.15,
		RandomFrac:   0.10,
		Bias:         0.93,
		MeanLoopTrip: trip,
		HotBytes:     w.hot,
		MidBytes:     w.mid,
		WarmBytes:    w.warm,
		ColdBytes:    w.cold,
		HotFrac:      w.hotFrac,
		MidFrac:      w.midFrac,
		WarmFrac:     w.warmFrac,
		ColdStride:   w.coldStride,
		CodeBytes:    16 << 10,
		DepDist:      dep,
	}
}

// intProf builds an integer benchmark profile: denser, less predictable
// branches (rnd fraction of sites data-dependent, bias elsewhere) and no
// FP work.
func intProf(name string, ld, st, br float64, trip int, w wsSpec, dep, rnd, bias float64) Profile {
	p := baseProf(name, ld, st, br, trip, w, dep)
	p.MulFrac = 0.04
	p.RandomFrac = rnd
	p.Bias = bias
	p.CodeBytes = 24 << 10
	return p
}

// fpProf builds a floating-point benchmark profile: loop-dominated,
// highly biased branches and a given FP fraction of compute work.
func fpProf(name string, ld, st, br, fp float64, trip int, w wsSpec, dep float64) Profile {
	p := baseProf(name, ld, st, br, trip, w, dep)
	p.FP = true
	p.FPFrac = fp
	p.MulFrac = 0.25
	p.LoopFrac = 0.55
	p.RandomFrac = 0.03
	p.Bias = 0.97
	return p
}

// suite is the suite built once for ByName; a Benchmark is a plain
// value, so lookups hand out independent copies.
var suite = Suite()

// ByName returns the benchmark with the given name.
func ByName(name string) (Benchmark, error) {
	for i := range suite {
		if suite[i].Profile.Name == name {
			return suite[i], nil
		}
	}
	return Benchmark{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Names returns the benchmark names in suite order.
func Names() []string {
	s := Suite()
	out := make([]string, len(s))
	for i, b := range s {
		out[i] = b.Profile.Name
	}
	return out
}
