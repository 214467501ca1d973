package components

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/ndarray"
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

// Run implements sb.Component. StepSample cannot use RunMap (it skips
// publishing for dropped steps), so it carries its own loop: kept steps
// are read, re-partitioned and republished; dropped steps are released
// without fetching their payload, which is the point — the transport
// retires them with no data movement beyond metadata.
func (s *StepSample) Run(env *sb.Env) error {
	if env.Metrics != nil {
		env.Metrics.MarkStarted()
		defer env.Metrics.MarkFinished()
	}
	r, err := env.OpenReader(s.InStream)
	if err != nil {
		return fmt.Errorf("step-sample: attaching reader to %q: %w", s.InStream, err)
	}
	defer r.Close()
	w, err := env.OpenWriter(s.OutStream)
	if err != nil {
		return fmt.Errorf("step-sample: attaching writer to %q: %w", s.OutStream, err)
	}
	defer w.Close()

	rank, size := env.Comm.Rank(), env.Comm.Size()
	for step := 0; ; step++ {
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		if step%s.Stride != 0 {
			// Dropped step: release without reading any block data.
			if err := r.EndStep(); err != nil {
				return fmt.Errorf("step-sample: step %d: %w", step, err)
			}
			continue
		}
		begin := time.Now()
		v, ok := info.Var(s.InArray)
		if !ok {
			return fmt.Errorf("step-sample: step %d of stream %q has no array %q", step, s.InStream, s.InArray)
		}
		axis, err := sb.ChooseAxis(v.Shape())
		if err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		box := ndarray.PartitionAlong(v.Shape(), axis, size, rank)
		block, err := r.ReadBox(env.Ctx(), s.InArray, box)
		if err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		if err := w.BeginStep(); err != nil {
			return err
		}
		for k, val := range info.Attrs {
			if err := w.SetAttribute(k, val); err != nil {
				return err
			}
		}
		if err := w.Write(s.OutArray, v.Dims, box, block.Data()); err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		if err := w.EndStep(env.Ctx()); err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		if err := r.EndStep(); err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		if env.Metrics != nil {
			n := int64(block.Size() * 8)
			env.Metrics.RecordStep(step, time.Since(begin), n, n)
		}
	}
}

func init() { Register("step-sample", NewStepSample) }
