// GROMACS spread workflow (paper §V-A, Fig. 7): the molecular-dynamics
// mini-app outputs atom coordinates; Magnitude computes each atom's
// distance from the origin and Histogram shows "an evolution of the
// spread of the particles throughout the simulation."
//
// This example also demonstrates the storage-coupling extension from the
// paper's future work (§VI): the coordinate stream is simultaneously
// forked to a FileWriter, and after the in situ workflow finishes, a
// FileReader replays the persisted steps through a second analysis chain
// — the same components, now decoupled in time.
//
// Run with:
//
//	go run ./examples/gromacs-spread
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/workflow"

	_ "repro/internal/sim/gromacs"
)

func main() {
	dir, err := os.MkdirTemp("", "gromacs-steps-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Phase 1 — in situ: gromacs → fork → (analysis chain | disk).
	histC, err := components.NewHistogram([]string{"dist.fp", "radii", "12"})
	if err != nil {
		log.Fatal(err)
	}
	hist := histC.(*components.Histogram)
	liveSpec := workflow.Spec{
		Name: "gromacs-live",
		Stages: []workflow.Stage{
			{Component: "gromacs", Args: []string{"gmx.fp", "positions", "20000", "6"}, Procs: 4},
			{Component: "fork", Args: []string{"gmx.fp", "positions", "live.fp", "store.fp"}, Procs: 2},
			{Component: "magnitude", Args: []string{"live.fp", "positions", "dist.fp", "radii"}, Procs: 2},
			{Instance: hist, Procs: 1},
			{Component: "file-writer", Args: []string{"store.fp", "positions", dir}, Procs: 2},
		},
	}
	res, err := workflow.Run(context.Background(),
		flexpath.NewInProc(), liveSpec, workflow.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in situ phase completed in %s\n", res.Elapsed.Round(1e6))
	fmt.Println("spread of the atom cloud over time (95th-percentile radius by histogram):")
	for _, h := range hist.Results() {
		fmt.Printf("  step %d: n=%d  mean-bin range [%.2f, %.2f]  max radius %.3f\n",
			h.Step, h.Total, h.Min, h.Max, h.Max)
	}

	// Phase 2 — post hoc: replay the persisted steps through a fresh
	// analysis chain with different rank counts.
	againC, err := components.NewHistogram([]string{"dist2.fp", "radii", "12"})
	if err != nil {
		log.Fatal(err)
	}
	again := againC.(*components.Histogram)
	replaySpec := workflow.Spec{
		Name: "gromacs-replay",
		Stages: []workflow.Stage{
			{Component: "file-reader", Args: []string{dir, "replay.fp"}, Procs: 3},
			{Component: "magnitude", Args: []string{"replay.fp", "positions", "dist2.fp", "radii"}, Procs: 3},
			{Instance: again, Procs: 1},
		},
	}
	res, err = workflow.Run(context.Background(),
		flexpath.NewInProc(), replaySpec, workflow.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplay phase completed in %s\n", res.Elapsed.Round(1e6))

	live, replay := hist.Results(), again.Results()
	if len(live) != len(replay) {
		log.Fatalf("replay saw %d steps, live saw %d", len(replay), len(live))
	}
	agree := true
	for s := range live {
		if live[s].Total != replay[s].Total || live[s].Min != replay[s].Min || live[s].Max != replay[s].Max {
			agree = false
		}
	}
	fmt.Printf("replayed analysis matches the in situ analysis step for step: %v\n", agree)
}
