package components

import (
	"fmt"
	"io"
	"math"

	"repro/internal/adios"
	"repro/internal/mpi"
	"repro/internal/sb"
)

const statsUsage = "input-stream-name input-array-name [output-path]"

// StepStats is one timestep's summary statistics over every element of
// the input array.
type StepStats struct {
	Step  int
	Count int64
	Min   float64
	Max   float64
	Mean  float64
	Std   float64
	Sum   float64
}

// Stats is a generic endpoint component computing per-timestep summary
// statistics (count, min, max, mean, standard deviation) of an array of
// any dimensionality — part of "expanding the generic components library
// to include a variety of other analytical operations" (§VI). Like
// Histogram, it is usually a workflow endpoint: the result is tiny, so
// rank 0 writes it.
type Stats struct {
	InStream, InArray string
	OutPath           string

	rec recorder[StepStats]
}

// NewStats parses: input-stream input-array [output-path].
func NewStats(args []string) (sb.Component, error) {
	if len(args) != 2 && len(args) != 3 {
		return nil, &sb.UsageError{Component: "stats", Usage: statsUsage,
			Problem: fmt.Sprintf("need 2 or 3 arguments, got %d", len(args))}
	}
	s := &Stats{InStream: args[0], InArray: args[1]}
	if len(args) == 3 {
		s.OutPath = args[2]
	}
	return s, nil
}

// Name implements sb.Component.
func (s *Stats) Name() string { return "stats" }

// Results returns the per-timestep statistics accumulated by rank 0.
func (s *Stats) Results() []StepStats { return s.rec.all() }

// ReservedAxes implements sb.ReduceKernel: any axis may be partitioned.
func (s *Stats) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}

// Reduce implements sb.ReduceKernel.
func (s *Stats) Reduce(in *StepIn) (StepStats, error) {
	return ComputeStats(in.Env.Comm, in.Block.Data())
}

// Run implements sb.Component.
func (s *Stats) Run(env *sb.Env) error {
	return s.rec.run(env, s.OutPath, writeStatsText, sb.ReduceConfig[StepStats]{
		Name:     "stats",
		InStream: s.InStream, InArray: s.InArray,
		OutBytes: 48,
	}, s)
}

func writeStatsText(w io.Writer, r StepStats) error {
	_, err := fmt.Fprintf(w, "step %d  n=%d  min=%g  max=%g  mean=%g  std=%g\n",
		r.Step, r.Count, r.Min, r.Max, r.Mean, r.Std)
	return err
}

func (r StepStats) withStep(step int) StepStats {
	r.Step = step
	return r
}

// ComputeStats merges per-rank moments into global summary statistics:
// one Allreduce over (count, sum, sum-of-squares, min, max). Every rank
// returns the identical result.
func ComputeStats(comm *mpi.Comm, local []float64) (StepStats, error) {
	type moments struct {
		Count    float64
		Sum      float64
		SumSq    float64
		Min, Max float64
	}
	m := moments{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range local {
		m.Count++
		m.Sum += v
		m.SumSq += v * v
		if v < m.Min {
			m.Min = v
		}
		if v > m.Max {
			m.Max = v
		}
	}
	merged, err := mpi.Allreduce(comm, m, func(a, b moments) moments {
		return moments{
			Count: a.Count + b.Count,
			Sum:   a.Sum + b.Sum,
			SumSq: a.SumSq + b.SumSq,
			Min:   math.Min(a.Min, b.Min),
			Max:   math.Max(a.Max, b.Max),
		}
	})
	if err != nil {
		return StepStats{}, err
	}
	out := StepStats{Count: int64(merged.Count), Sum: merged.Sum}
	if merged.Count > 0 {
		out.Min, out.Max = merged.Min, merged.Max
		out.Mean = merged.Sum / merged.Count
		variance := merged.SumSq/merged.Count - out.Mean*out.Mean
		if variance > 0 {
			out.Std = math.Sqrt(variance)
		}
	}
	return out, nil
}

func init() { Register("stats", NewStats) }
