package sb

import (
	"fmt"

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

// RunReduce runs an endpoint component through the step loop: for every
// timestep, read this rank's partition, run the collective reduction,
// deliver the result on rank 0 — until the input stream ends.
func RunReduce[T any](env *Env, cfg ReduceConfig[T], kernel ReduceKernel[T]) error {
	l := NewLoop(env, cfg.Name)
	defer l.Close()
	if _, err := l.Reader(cfg.InStream); err != nil {
		return err
	}
	return l.Run(func(s *Step) error {
		v, err := s.Var(0, cfg.InArray)
		if err != nil {
			return err
		}
		if cfg.RequireDims > 0 && len(v.Dims) != cfg.RequireDims {
			return fmt.Errorf("expects %d-dimensional data, got %d dimensions in %q", cfg.RequireDims, len(v.Dims), v.Name)
		}
		in, err := readInput(env, s, cfg.InArray, kernel)
		if err != nil {
			return err
		}
		s.BytesOut = cfg.OutBytes
		result, err := kernel.Reduce(in)
		if err != nil || env.Comm.Rank() != 0 || cfg.OnResult == nil {
			return err
		}
		return cfg.OnResult(s.N, result)
	})
}
