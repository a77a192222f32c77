// Command r3dheat solves the steady-state thermal field of one chip
// model and renders each die's active-layer temperature map as ASCII —
// the quickest way to see where a floorplan puts its heat.
//
//	r3dheat -model 3d-2a -checker 15
//	r3dheat -model 3d-2a -checker 15 -corner
package main

import (
	"flag"
	"fmt"
	"log"

	"r3d/internal/experiment"
	"r3d/internal/floorplan"
	"r3d/internal/power"
)

func main() {
	model := flag.String("model", "3d-2a", "chip model: 2d-a, 2d-2a, 3d-2a, 3d-checker")
	checkerW := flag.Float64("checker", power.CheckerPessimisticW, "checker power (W)")
	corner := flag.Bool("corner", false, "place the checker at the top-die corner")
	cols := flag.Int("cols", 50, "heatmap width in characters")
	flag.Parse()

	m, err := experiment.ParseChipModel(*model)
	if err != nil {
		log.Fatal(err)
	}

	q := experiment.Fast()
	q.Benchmarks = []string{"gzip", "mesa", "swim"}
	s := experiment.NewSession(q)
	act, rate, err := s.SuiteActivity(experiment.L2DA)
	if err != nil {
		log.Fatal(err)
	}
	opt := floorplan.DefaultOptions()
	opt.CheckerAtCorner = *corner

	st, res, err := s.SolveThermalDetailed(experiment.ThermalCase{
		Model: m, Opt: opt, Act: act, L2Rate: rate, CheckerW: *checkerW,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, checker %.0f W: peak %.1f °C (die1 %.1f)\n\n", *model, *checkerW, res.PeakC, res.PeakDie1C)
	layers := st.Model().HeatLayers()
	names := []string{"die 1 (leading core)", "die 2 (checker + L2)"}
	for i, l := range layers {
		fmt.Printf("%s\n%s\n", names[i], st.HeatmapASCII(l, *cols))
	}
}
