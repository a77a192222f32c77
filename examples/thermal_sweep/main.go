// Thermal sweep: regenerate the paper's Figure 4 experiment — peak chip
// temperature as a function of checker-core power for the 2d-2a and
// 3d-2a organizations against the 2d-a baseline — using the internal
// experiment harness on a reduced benchmark subset, and render the two
// series as ASCII curves.
package main

import (
	"fmt"
	"log"
	"strings"

	"r3d/internal/experiment"
	"r3d/internal/thermal"
)

func main() {
	q := experiment.Fast()
	q.Benchmarks = []string{"gzip", "mesa", "swim"}
	s := experiment.NewSession(q)

	fig4, err := experiment.Figure4(s)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("2d-a baseline: %.1f °C\n\n", fig4.Baseline2DA)
	fmt.Printf("%-10s %-8s %-8s %s\n", "checker W", "2d-2a", "3d-2a", "")
	lo := fig4.Baseline2DA - 10
	for _, row := range fig4.Rows {
		bar := func(t thermal.Celsius) string {
			n := int((t - lo) / 2)
			if n < 0 {
				n = 0
			}
			return strings.Repeat("▪", n)
		}
		fmt.Printf("%-10.0f %-8.1f %-8.1f |%s\n", row.CheckerW, row.T2D2A, row.T3D2A, bar(row.T3D2A))
	}

	fmt.Println("\nNote the §3.2 crossover: below ≈10 W the 2d-2a chip (bigger heat")
	fmt.Println("sink, more lateral spreading) is cooler than the 2d-a baseline;")
	fmt.Println("the stacked 3d-2a chip is always hotter — that is the price of 3D.")
}
