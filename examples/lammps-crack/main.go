// LAMMPS crack workflow (paper §V-A, Figs. 5 and 8): a particle
// simulation with a propagating crack drives Select → Magnitude →
// Histogram, producing a per-timestep distribution of particle velocity
// magnitudes. The workflow is assembled from the exact launch-script
// format of the paper's Fig. 8 and resolved at run time — no component
// was compiled for this workflow.
//
// Run with:
//
//	go run ./examples/lammps-crack
//
// The final histograms land in velocity_hist.txt; watch the
// high-velocity tail grow as the crack front releases particles.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/flexpath"
	"repro/internal/launch"
	"repro/internal/workflow"

	_ "repro/internal/sim/lammps" // the driving simulation registers itself by name
)

// script is the paper's Fig. 8, adapted to this repo's simulator
// arguments; note the decreasing process counts down the pipeline, as in
// the paper.
const script = `
# SmartBlock example launch script, LAMMPS workflow (Fig. 8)
aprun -n 1 histogram velos.fp velocities 16 velocity_hist.txt &
aprun -n 2 magnitude lmpselect.fp lmpsel velos.fp velocities &
aprun -n 2 select dump.custom.fp atoms 1 lmpselect.fp lmpsel vx vy vz &
aprun -n 4 lammps dump.custom.fp atoms 20000 6 &
wait
`

func main() {
	spec, err := launch.Parse("lammps-crack", script)
	if err != nil {
		log.Fatal(err)
	}

	transport := flexpath.NewInProc()
	res, err := workflow.Run(context.Background(), transport, spec, workflow.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("LAMMPS crack workflow completed in %s across %d processes\n",
		res.Elapsed.Round(1e6), res.TotalProcs())
	for _, st := range res.Stages {
		if st.Metrics == nil || len(st.Metrics.Steps()) == 0 {
			continue
		}
		steps := st.Metrics.Steps()
		mid := steps[len(steps)/2]
		fmt.Printf("  %-10s %d ranks, %d steps, per-proc throughput %.0f KB/s at step %d\n",
			st.Metrics.Component(), st.Stage.Procs, len(steps),
			mid.PerProcThroughput()/1024, mid.Step)
	}

	data, err := os.ReadFile("velocity_hist.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvelocity_hist.txt (%d bytes) — last step excerpt:\n", len(data))
	// Print the tail of the file: the final step's histogram.
	tail := data
	if len(tail) > 600 {
		tail = tail[len(tail)-600:]
	}
	fmt.Print(string(tail))
}
