package experiment

import "fmt"

// An Experiment pairs one table/figure/section renderer with the
// manifest of simulation windows it needs. The registry is the single
// source of truth for experiment names: r3dbench selects from it,
// prefetches the union of the selected manifests through the run
// engine, then renders in registry order.
type Experiment struct {
	Name string
	// Manifest declares the statically known RunKeys (nil = the
	// experiment needs no engine windows). Windows that depend on
	// mid-experiment results — e.g. the thermally derived DVFS memory
	// latencies of §3.3/§4 — are computed on demand through the same
	// memoized engine and documented on each manifest.
	Manifest func(q Quality) []RunKey
	// Run renders the experiment. workers is the pool width for the
	// injection study's campaign, the one experiment that drives its own
	// harness. Everything else, the thermal sweeps included, reaches
	// parallelism through the session's engines and ignores it.
	Run func(s *Session, workers int) (fmt.Stringer, error)
}

// Registry returns every experiment in render order (the order
// r3dbench prints them).
func Registry() []Experiment {
	return []Experiment{
		{Name: "table2", Manifest: Table2Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Table2(s) }},
		{Name: "table4",
			Run: func(*Session, int) (fmt.Stringer, error) { return Table4(), nil }},
		{Name: "table5",
			Run: func(*Session, int) (fmt.Stringer, error) { return Table5() }},
		{Name: "table6",
			Run: func(*Session, int) (fmt.Stringer, error) { return Table6(), nil }},
		{Name: "table7",
			Run: func(*Session, int) (fmt.Stringer, error) { return Table7(), nil }},
		{Name: "table8",
			Run: func(*Session, int) (fmt.Stringer, error) { return Table8() }},
		{Name: "fig4", Manifest: Figure4Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Figure4(s) }},
		{Name: "fig5", Manifest: Figure5Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Figure5(s) }},
		{Name: "fig6", Manifest: Figure6Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Figure6(s) }},
		{Name: "fig7", Manifest: Figure7Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Figure7(s) }},
		{Name: "fig8",
			Run: func(*Session, int) (fmt.Stringer, error) { return Figure8() }},
		{Name: "fig9",
			Run: func(*Session, int) (fmt.Stringer, error) { return Figure9() }},
		{Name: "sec32", Manifest: Section32Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Section32Variants(s) }},
		{Name: "sec33", Manifest: Section33Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Section33(s) }},
		{Name: "sec34",
			Run: func(*Session, int) (fmt.Stringer, error) { return Section34() }},
		{Name: "sec35", Manifest: Section35Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Section35(s) }},
		{Name: "sec4", Manifest: Section4Manifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return Section4(s) }},
		{Name: "dfs", Manifest: DFSAblationManifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return DFSAblation(s) }},
		{Name: "degraded", Manifest: DegradedModeManifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return DegradedMode(s) }},
		{Name: "rvqsize", Manifest: QueueSizingManifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return QueueSizing(s) }},
		{Name: "dtm", Manifest: DTMStudyManifest,
			Run: func(s *Session, _ int) (fmt.Stringer, error) { return DTMStudy(s, 300) }},
		{Name: "inject",
			Run: func(s *Session, workers int) (fmt.Stringer, error) { return InjectionStudy(s, workers) }},
	}
}

// Names returns every registered experiment name in render order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}

// Find looks an experiment up by name.
func Find(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ManifestUnion concatenates the selected experiments' manifests. The
// engine deduplicates across experiments, so overlapping manifests (the
// suite-activity windows appear in most of them) cost nothing extra —
// this is what turns a whole-suite run into one batch with zero
// duplicated windows.
func ManifestUnion(q Quality, exps []Experiment) []RunKey {
	var keys []RunKey
	for _, e := range exps {
		if e.Manifest != nil {
			keys = append(keys, e.Manifest(q)...)
		}
	}
	return keys
}
