package sb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/obs"
)

// StepInput is what a map-style kernel sees each timestep on each rank:
// the step's self-describing metadata, the variable it operates on, the
// bounding box this rank was assigned, and the block read from it. In a
// step loop the block's storage, like Scratch's, is reused by the next
// step: a kernel must not keep either past the step.
type StepInput struct {
	Info  *adios.StepInfo
	Var   *adios.GlobalVar
	Box   ndarray.Box
	Block *ndarray.Array
	Env   *Env
	// Reader is the step's open reader, for kernels that need data beyond
	// their own partition (e.g. AllPairs re-reads the shared sample).
	Reader *adios.Reader
	// Scratch is where the kernel takes its output block from; the step
	// loop hands the storage out again once the output has been published
	// (encoded). Nil outside a step loop, where Floats allocates.
	Scratch *Scratch
}

// Scratch is one rank's reusable output storage for one map kernel.
type Scratch struct{ buf []float64 }

// Floats returns n values of storage with unspecified contents: the
// scratch's own, grown when too small, or fresh storage on a nil
// Scratch.
func (s *Scratch) Floats(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
}

// StepOutput is a kernel's locally computed result: this rank's block of
// the output array, its position in the output global space, and any
// attributes to attach downstream.
type StepOutput struct {
	GlobalDims []ndarray.Dim
	Box        ndarray.Box
	Data       []float64
	Attrs      map[string]string
}

// MapKernel is the contract shared by the paper's data-transformation
// components (Select, Magnitude, Dim-Reduce): a purely local, per-rank
// transformation of a partitioned block, where the global output layout
// is derivable from the global input layout.
type MapKernel interface {
	// ReservedAxes lists input axes that must not be partitioned (for
	// example, the axis Select filters). May return nil.
	ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error)
	// Transform computes this rank's output block from its input block.
	Transform(in *StepInput) (*StepOutput, error)
}

// MapConfig wires a MapKernel into a runnable component.
type MapConfig struct {
	// Name of the component kind, for errors and metrics.
	Name string
	// InStream / InArray identify the input.
	InStream, InArray string
	// OutStream / OutArray identify the output.
	OutStream, OutArray string
	// ForwardAttrs propagates all upstream attributes downstream unless
	// the kernel overrides them — the paper's guideline of maintaining
	// high-level semantics through components that do not require them
	// (§III-A3).
	ForwardAttrs bool
}

// RunMap executes the shared per-rank loop of a map-style component:
// attach to the input and output streams, and for every timestep read
// this rank's partition, transform it, and republish — until the input
// stream ends. It records one Metrics sample per timestep.
func RunMap(env *Env, cfg MapConfig, kernel MapKernel) error {
	if env.Metrics != nil {
		env.Metrics.MarkStarted()
		defer env.Metrics.MarkFinished()
	}
	r, err := env.OpenReader(cfg.InStream)
	if err != nil {
		return fmt.Errorf("%s: attaching reader to %q: %w", cfg.Name, cfg.InStream, err)
	}
	defer r.Close()
	w, err := env.OpenWriter(cfg.OutStream)
	if err != nil {
		return fmt.Errorf("%s: attaching writer to %q: %w", cfg.Name, cfg.OutStream, err)
	}
	defer w.Close()

	tr := env.Tracer
	var scratch Scratch
	for {
		// Step boundary: the elastic-rescale supervisor interrupts here,
		// after the previous step fully settled and before any work on the
		// next, so a detach leaves nothing half-published.
		if env.Interrupt != nil {
			if err := env.Interrupt(); err != nil {
				// The supervisor will detach the handles; keep the defer
				// chain's graceful closes from ending the streams first.
				env.Handles.Suspend()
				return err
			}
		}
		step := r.NextStep() // absolute: a re-attached reader resumes mid-stream
		// The stage.step span's ID is allocated up front and carried down
		// into every transport call via the step context, so the fabric's
		// publish/fetch spans nest under this stage's step. The span itself
		// is emitted once the step settles — successfully or not — so a
		// trace never contains a child whose parent was lost to a failure.
		ctx := env.Ctx()
		var stepSpan obs.SpanID
		var stepStart int64
		if tr.Enabled() {
			stepSpan = tr.NextID()
			ctx = obs.WithParent(ctx, stepSpan)
			stepStart = tr.Now()
		}
		eof, active, bytesIn, bytesOut, err := runMapStep(env, cfg, kernel, r, w, ctx, step, stepSpan, &scratch)
		if eof {
			env.logf("%s rank %d: input stream %q ended after %d steps", cfg.Name, env.Comm.Rank(), cfg.InStream, step)
			return nil
		}
		if tr.Enabled() {
			span := obs.Span{ID: stepSpan, Kind: obs.KindStageStep,
				Stream: cfg.InStream, Step: step, Rank: env.Comm.Rank(), Peer: -1,
				Bytes: bytesIn, Epoch: env.Epoch, Note: cfg.Name, Start: stepStart}
			if err != nil {
				span.Err = err.Error()
			}
			tr.Emit(span)
		}
		if err != nil {
			return err
		}
		if env.Metrics != nil {
			env.Metrics.RecordStep(step, active, bytesIn, bytesOut)
		}
	}
}

// runMapStep executes one timestep of the RunMap loop: wait for the
// step, read this rank's partition, transform, republish (unless the
// resumed writer already has), release. It reports end-of-stream via
// eof, the step's active duration (excluding the wait for the
// producer), and the payload bytes moved.
//
// The body is a composition of the kernel seam below — partitionFor,
// transformKernel, publishOutput — the same pieces the fused runner
// (fuse.go) chains back-to-back without the intermediate stream hop.
// The block is read into the reader's step-scoped storage and the
// kernel writes into scratch, so a steady step makes one copy of the
// data (the box assembly) and allocates no array.
func runMapStep(env *Env, cfg MapConfig, kernel MapKernel, r *adios.Reader, w *adios.Writer,
	ctx context.Context, step int, stepSpan obs.SpanID, scratch *Scratch) (eof bool, active time.Duration, bytesIn, bytesOut int64, err error) {
	rank, size := env.Comm.Rank(), env.Comm.Size()
	fail := func(e error) (bool, time.Duration, int64, int64, error) {
		return false, 0, bytesIn, bytesOut, fmt.Errorf("%s: step %d: %w", cfg.Name, step, e)
	}
	info, err := r.BeginStep(ctx)
	if errors.Is(err, io.EOF) {
		return true, 0, 0, 0, nil
	}
	if err != nil {
		return fail(err)
	}
	begin := time.Now() // active time: excludes waiting for the producer
	v, ok := info.Var(cfg.InArray)
	if !ok {
		return false, 0, 0, 0, fmt.Errorf("%s: step %d of stream %q has no array %q", cfg.Name, step, cfg.InStream, cfg.InArray)
	}
	box, err := partitionFor(kernel, v, info, size, rank)
	if err != nil {
		return fail(err)
	}
	block, err := r.ReadBoxScoped(ctx, cfg.InArray, box)
	if err != nil {
		return fail(err)
	}
	bytesIn = int64(block.Size() * 8)
	out, err := transformKernel(env, cfg.Name, cfg.InStream, kernel, stepSpan, step,
		&StepInput{Info: info, Var: v, Box: box, Block: block, Env: env, Reader: r, Scratch: scratch})
	if err != nil {
		return fail(err)
	}
	bytesOut = int64(len(out.Data) * 8)
	if err := publishOutput(env, cfg, w, ctx, step, info.Attrs, out); err != nil {
		return fail(err)
	}
	if err := r.EndStep(); err != nil {
		return fail(err)
	}
	return false, time.Since(begin), bytesIn, bytesOut, nil
}

// partitionFor computes the box one rank reads of variable v for the
// given kernel: the kernel reserves axes that must stay whole, and the
// first of the rest is split.
func partitionFor(kernel MapKernel, v *adios.GlobalVar, info *adios.StepInfo, size, rank int) (ndarray.Box, error) {
	reserved, err := kernel.ReservedAxes(v, info)
	if err != nil {
		return ndarray.Box{}, err
	}
	axis, err := ChooseAxis(v.Shape(), reserved...)
	if err != nil {
		return ndarray.Box{}, err
	}
	return ndarray.PartitionAlong(v.Shape(), axis, size, rank), nil
}

// transformKernel runs one kernel Transform with its kernel.transform
// span, emitted under stepSpan whether the call succeeds or fails.
func transformKernel(env *Env, name, stream string, kernel MapKernel, stepSpan obs.SpanID, step int, in *StepInput) (*StepOutput, error) {
	tr := env.Tracer
	var kStart int64
	if tr.Enabled() {
		kStart = tr.Now()
	}
	out, err := kernel.Transform(in)
	if tr.Enabled() {
		span := obs.Span{Kind: obs.KindKernelTransform, Parent: stepSpan,
			Stream: stream, Step: step, Rank: env.Comm.Rank(), Peer: -1,
			Bytes: int64(in.Block.Size() * 8), Epoch: env.Epoch, Note: name, Start: kStart}
		if err != nil {
			span.Err = err.Error()
		}
		tr.Emit(span)
	}
	return out, err
}

// publishOutput republishes one kernel output downstream with
// exactly-once semantics: a restarted rank that crashed between
// publishing step N and releasing its input re-reads step N but must
// not publish it twice — the resumed writer is already past it.
// upstreamAttrs are forwarded first when the config asks for it, then
// the kernel's own attributes override.
func publishOutput(env *Env, cfg MapConfig, w *adios.Writer, ctx context.Context, step int,
	upstreamAttrs map[string]string, out *StepOutput) error {
	if w.Steps() > step {
		return nil
	}
	if err := w.BeginStep(); err != nil {
		return err
	}
	if cfg.ForwardAttrs {
		for k, val := range upstreamAttrs {
			if err := w.SetAttribute(k, val); err != nil {
				return err
			}
		}
	}
	for k, val := range out.Attrs {
		if err := w.SetAttribute(k, val); err != nil {
			return err
		}
	}
	if err := w.Write(cfg.OutArray, out.GlobalDims, out.Box, out.Data); err != nil {
		return err
	}
	return w.EndStep(ctx)
}
