// GTCP toroid workflow (paper §V-A, Figs. 4 and 6): the toroidal plasma
// simulator outputs a three-dimensional (slices × gridpoints × 7
// quantities) array; Select filters the perpendicular pressure by name
// against the quantity header, and because Histogram expects
// one-dimensional data, the result "must go through two instances of
// Dim-Reduce" before the final distribution of pressures in the entire
// toroid is produced.
//
// Run with:
//
//	go run ./examples/gtcp-toroid
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/workflow"

	_ "repro/internal/sim/gtcp"
)

func main() {
	histC, err := components.NewHistogram([]string{"flat.fp", "pressures", "20"})
	if err != nil {
		log.Fatal(err)
	}
	hist := histC.(*components.Histogram)

	spec := workflow.Spec{
		Name: "gtcp-toroid",
		Stages: []workflow.Stage{
			// gtcp output-stream output-array num-slices num-gridpoints num-steps
			{Component: "gtcp", Args: []string{"gtcp.fp", "grid", "16", "512", "4"}, Procs: 4},
			// select: keep only the perpendicular pressure (quantity axis = 2)
			{Component: "select", Args: []string{"gtcp.fp", "grid", "2",
				"psel.fp", "press", "pressure_perp"}, Procs: 2},
			// first dim-reduce: absorb the singleton quantity axis into the points
			{Component: "dim-reduce", Args: []string{"psel.fp", "press", "2", "1",
				"dr1.fp", "press2"}, Procs: 2},
			// second dim-reduce: absorb the toroidal slices into the points
			{Component: "dim-reduce", Args: []string{"dr1.fp", "press2", "0", "1",
				"flat.fp", "pressures"}, Procs: 2},
			{Instance: hist, Procs: 1},
		},
	}

	transport := flexpath.NewInProc()
	res, err := workflow.Run(context.Background(), transport, spec, workflow.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GTCP workflow completed in %s across %d processes\n\n",
		res.Elapsed.Round(1e6), res.TotalProcs())

	for _, h := range hist.Results() {
		fmt.Printf("step %d: perpendicular pressure over %d gridpoints, range [%.3f, %.3f]\n",
			h.Step, h.Total, h.Min, h.Max)
		// A terminal-friendly bar chart of the distribution.
		var peak int64 = 1
		for _, c := range h.Counts {
			if c > peak {
				peak = c
			}
		}
		for i, c := range h.Counts {
			lo, hi := h.Bin(i)
			bar := strings.Repeat("#", int(c*40/peak))
			fmt.Printf("  [%7.3f, %7.3f) %6d %s\n", lo, hi, c, bar)
		}
		fmt.Println()
	}
}
