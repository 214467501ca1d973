package components

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

// Bounds on what one steady-state step of the pipeline below may
// allocate, across every goroutine: the step loop, metadata codec,
// broker hand-offs and the like. They are constants for every block
// size, so no allocation may scale with the data: one copy of the larger
// block's data on any hop — a decode copy, a fresh read array, a fresh
// kernel output — exceeds the byte bound.
const (
	steadyAllocsBound = 300
	steadyBytesBound  = 128 << 10
)

// A steady magnitude stage moves each step with one copy of the data
// (the box assembly) and no fresh array: the payload decode aliases the
// frame, the block lands in the reader's step-scoped storage, and the
// kernel writes into its rank's scratch. Measured over a source, a
// 2-rank magnitude stage on the in-process fabric and a sink, at two
// block sizes.
func TestMagnitudeSteadyStepAllocs(t *testing.T) {
	for _, points := range []int{64, 1 << 16} {
		allocs, bytes := steadyMagnitudeStep(t, points)
		t.Logf("%d points: %.1f allocs, %.0f bytes per step", points, allocs, bytes)
		if allocs > steadyAllocsBound {
			t.Errorf("%d points: %.1f allocations per step, bound %d", points, allocs, steadyAllocsBound)
		}
		// The race detector makes sync.Pool drop buffers at random, so
		// encode buffers are reallocated and the bytes say nothing there.
		if !raceEnabled && bytes > steadyBytesBound {
			t.Errorf("%d points: %.0f bytes allocated per step, bound %d", points, bytes, steadyBytesBound)
		}
	}
}

// steadyMagnitudeStep runs the pipeline and returns the allocations and
// bytes allocated per step, after warm-up.
func steadyMagnitudeStep(t *testing.T, points int) (allocs, bytes float64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	transport := sb.BrokerTransport{Broker: flexpath.NewBroker()}
	mag := &Magnitude{InStream: "in", InArray: "velos", OutStream: "out", OutArray: "mags"}
	stage := make(chan error, 1)
	go func() {
		stage <- mpi.RunCtx(ctx, 2, func(c *mpi.Comm) error {
			return mag.Run(&sb.Env{Comm: c, Transport: transport})
		})
	}()

	bw, err := transport.AttachWriter("in", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := adios.NewWriter(bw, nil)
	br, err := transport.AttachReader("out", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := adios.NewReader(br)
	dims := []ndarray.Dim{{Name: "atoms", Size: points}, {Name: "xyz", Size: 3}}
	box := ndarray.WholeBox([]int{points, 3})
	data := make([]float64, points*3)
	for i := range data {
		data[i] = float64(i % 7)
	}
	step := func() {
		if err := w.BeginStep(); err != nil {
			t.Fatal(err)
		}
		if err := w.Write("velos", dims, box, data); err != nil {
			t.Fatal(err)
		}
		if err := w.EndStep(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := r.BeginStep(ctx); err != nil {
			t.Fatal(err)
		}
		out, err := r.ReadBoxScoped(ctx, "mags", ndarray.WholeBox([]int{points}))
		if err != nil {
			t.Fatal(err)
		}
		if out.Data()[0] != math.Sqrt(0*0+1*1+2*2) {
			t.Fatalf("magnitude of point 0 = %g", out.Data()[0])
		}
		if err := r.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up, then settle the heap so that no garbage collection — which
	// empties the buffer pool a step or two later — falls in the window.
	for range 8 {
		step()
	}
	runtime.GC()
	for range 8 {
		step()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
	// Counted separately: AllocsPerRun runs at GOMAXPROCS 1, which strands
	// buffers pooled on the other processors and so adds refills.
	allocs = testing.AllocsPerRun(runs, step)

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.BeginStep(ctx); err == nil {
		t.Fatal("sink saw a step after the source closed")
	}
	if err := <-stage; err != nil {
		t.Fatal(err)
	}
	r.Close()
	return allocs, bytes
}
