// Quickstart: the smallest complete SmartBlock workflow.
//
// A one-rank producer publishes a small self-describing 2-D array per
// timestep on stream "data.fp"; the generic Magnitude and Histogram
// components — configured purely by run-time arguments, exactly as they
// would be from an aprun line — turn it into a per-timestep distribution.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/adios"
	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/ndarray"
	"repro/internal/sb"
	"repro/internal/workflow"
)

// producer is a minimal SmartBlock-instrumented "simulation": each rank
// publishes its slab of a (points × 3) coordinate array per timestep.
// It implements sb.Component, so the workflow launcher treats it exactly
// like the built-in drivers.
type producer struct {
	points, steps int
}

func (p *producer) Name() string { return "producer" }

func (p *producer) Run(env *sb.Env) error {
	rank, size := env.Comm.Rank(), env.Comm.Size()
	offset, count := ndarray.Partition1D(p.points, size, rank)
	w, err := env.OpenWriter("data.fp")
	if err != nil {
		return err
	}
	defer w.Close()
	// Label the coordinate dimension so semantics-aware components
	// downstream know what each column is.
	w.SetStickyAttribute(components.HeaderAttr("coords"), adios.JoinList([]string{"x", "y", "z"}))

	rng := rand.New(rand.NewSource(int64(rank) + 1))
	globalDims := []ndarray.Dim{{Name: "points", Size: p.points}, {Name: "coords", Size: 3}}
	box := ndarray.Box{Offsets: []int{offset, 0}, Counts: []int{count, 3}}
	buf := make([]float64, count*3)
	for step := 0; step < p.steps; step++ {
		spread := 1.0 + float64(step) // the cloud grows every step
		for i := range buf {
			buf[i] = rng.NormFloat64() * spread
		}
		if err := w.BeginStep(); err != nil {
			return err
		}
		if err := w.Write("cloud", globalDims, box, buf); err != nil {
			return err
		}
		if err := w.EndStep(env.Ctx()); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	// A histogram endpoint we keep a handle on, to print its results.
	histC, err := components.NewHistogram([]string{"radii.fp", "radii", "10"})
	if err != nil {
		log.Fatal(err)
	}
	hist := histC.(*components.Histogram)

	spec := workflow.Spec{
		Name: "quickstart",
		Stages: []workflow.Stage{
			{Instance: &producer{points: 4096, steps: 4}, Procs: 2},
			// magnitude input-stream input-array output-stream output-array
			{Component: "magnitude", Args: []string{"data.fp", "cloud", "radii.fp", "radii"}, Procs: 2},
			{Instance: hist, Procs: 1},
		},
	}

	transport := flexpath.NewInProc()
	res, err := workflow.Run(context.Background(), transport, spec, workflow.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("quickstart finished in %s\n\n", res.Elapsed.Round(1e6))
	for _, h := range hist.Results() {
		fmt.Printf("distribution of |x| at step %d (n=%d, range [%.2f, %.2f]):\n",
			h.Step, h.Total, h.Min, h.Max)
		if err := components.WriteHistogramText(os.Stdout, "radii", h); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
