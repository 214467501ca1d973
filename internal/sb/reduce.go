package sb

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/adios"
)

// ReduceKernel is the contract for endpoint components (Histogram, Stats
// and kin): a per-rank reduction over the rank's partition that
// cooperates through the communicator and yields one global result per
// timestep. Reduce must be called collectively (every rank, every step);
// the returned value is consumed on rank 0 only. ReservedAxes has the
// same signature as MapKernel's, so a type can serve both loops.
type ReduceKernel[T any] interface {
	// ReservedAxes lists input axes that must not be partitioned.
	ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error)
	// Reduce combines this rank's block into the step's global result.
	Reduce(in *StepInput) (T, error)
}

// ReduceConfig wires a ReduceKernel into a runnable endpoint component.
type ReduceConfig[T any] struct {
	// Name of the component kind, for errors and metrics.
	Name string
	// InStream / InArray identify the input.
	InStream, InArray string
	// RequireDims, when positive, rejects inputs of any other rank —
	// e.g. Histogram demands one-dimensional data (§III-E).
	RequireDims int
	// OutBytes is the per-step output accounting for metrics (endpoint
	// results are tiny and fixed-size).
	OutBytes int64
	// OnResult receives each step's result on rank 0 only, in step
	// order. It typically appends to the component's result log and
	// writes the output file.
	OnResult func(step int, result T) error
}

// RunReduce executes the shared per-rank loop of an endpoint component:
// for every timestep, read this rank's partition, run the collective
// reduction, deliver the result on rank 0 — until the input stream ends.
func RunReduce[T any](env *Env, cfg ReduceConfig[T], kernel ReduceKernel[T]) error {
	if env.Metrics != nil {
		env.Metrics.MarkStarted()
		defer env.Metrics.MarkFinished()
	}
	r, err := env.OpenReader(cfg.InStream)
	if err != nil {
		return fmt.Errorf("%s: attaching reader to %q: %w", cfg.Name, cfg.InStream, err)
	}
	defer r.Close()

	rank, size := env.Comm.Rank(), env.Comm.Size()
	for {
		step := r.NextStep() // absolute: a re-attached reader resumes mid-stream
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: step %d: %w", cfg.Name, step, err)
		}
		begin := time.Now() // active time: excludes waiting for the producer
		v, ok := info.Var(cfg.InArray)
		if !ok {
			return fmt.Errorf("%s: step %d of stream %q has no array %q", cfg.Name, step, cfg.InStream, cfg.InArray)
		}
		if cfg.RequireDims > 0 && len(v.Dims) != cfg.RequireDims {
			return fmt.Errorf("%s: expects %d-dimensional data, got %d dimensions in %q",
				cfg.Name, cfg.RequireDims, len(v.Dims), v.Name)
		}
		box, err := partitionFor(kernel, v, info, size, rank)
		if err != nil {
			return fmt.Errorf("%s: step %d: %w", cfg.Name, step, err)
		}
		block, err := r.ReadBox(env.Ctx(), cfg.InArray, box)
		if err != nil {
			return fmt.Errorf("%s: step %d: %w", cfg.Name, step, err)
		}
		result, err := kernel.Reduce(&StepInput{Info: info, Var: v, Box: box, Block: block, Env: env, Reader: r})
		if err != nil {
			return fmt.Errorf("%s: step %d: %w", cfg.Name, step, err)
		}
		if rank == 0 && cfg.OnResult != nil {
			if err := cfg.OnResult(step, result); err != nil {
				return fmt.Errorf("%s: step %d: %w", cfg.Name, step, err)
			}
		}
		if err := r.EndStep(); err != nil {
			return fmt.Errorf("%s: step %d: %w", cfg.Name, step, err)
		}
		if env.Metrics != nil {
			env.Metrics.RecordStep(step, time.Since(begin), int64(block.Size()*8), cfg.OutBytes)
		}
	}
}
