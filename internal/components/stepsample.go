package components

import (
	"fmt"
	"strconv"

	"repro/internal/sb"
)

const stepSampleUsage = "input-stream-name input-array-name stride output-stream-name output-array-name"

// StepSample is temporal decimation: it republishes every stride-th
// *timestep* of its input, dropping the rest. Where Sample thins the
// units dimension within a step, StepSample thins the output cadence —
// the standard lever when a simulation's I/O interval is finer than an
// expensive downstream analysis can sustain. Output timesteps are
// renumbered densely (input steps 0, k, 2k, … become output steps
// 0, 1, 2, …), as required by the transport's sequential-step contract.
type StepSample struct {
	InStream, InArray   string
	OutStream, OutArray string
	Stride              int
}

// NewStepSample parses: input-stream input-array stride output-stream
// output-array.
func NewStepSample(args []string) (sb.Component, error) {
	if len(args) != 5 {
		return nil, &sb.UsageError{Component: "step-sample", Usage: stepSampleUsage,
			Problem: fmt.Sprintf("need exactly 5 arguments, got %d", len(args))}
	}
	stride, err := strconv.Atoi(args[2])
	if err != nil || stride <= 0 {
		return nil, &sb.UsageError{Component: "step-sample", Usage: stepSampleUsage,
			Problem: fmt.Sprintf("stride %q is not a positive integer", args[2])}
	}
	return &StepSample{
		InStream: args[0], InArray: args[1],
		Stride:    stride,
		OutStream: args[3], OutArray: args[4],
	}, nil
}

// Name implements sb.Component.
func (s *StepSample) Name() string { return "step-sample" }

// Run implements sb.Component: kept steps are read, re-partitioned and
// republished as output step N/stride; dropped steps are released
// without fetching their payload, which is the point — the transport
// retires them with no data movement beyond metadata.
func (s *StepSample) Run(env *sb.Env) error {
	l := sb.NewLoop(env, "step-sample")
	defer l.Close()
	if _, err := l.Reader(s.InStream); err != nil {
		return err
	}
	w, err := l.Writer(s.OutStream)
	if err != nil {
		return err
	}
	return l.Run(func(st *sb.Step) error {
		if st.N%s.Stride != 0 {
			return nil
		}
		v, box, block, err := st.Read(0, s.InArray)
		if err != nil {
			return err
		}
		st.BytesOut = st.BytesIn
		return st.Publish(w, st.N/s.Stride, s.OutArray, v.Dims, box, block.Data(), st.Info[0].Attrs)
	})
}

func init() { Register("step-sample", NewStepSample) }
