package sb

import (
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

// RunMap runs a map-style component through the step loop: attach to
// the input and output streams, and for every timestep read this rank's
// partition, transform it, and republish — until the input stream ends.
// It is runChain over one part; a Fused stage runs the same loop over
// several.
func RunMap(env *Env, cfg MapConfig, kernel MapKernel) error {
	return runChain(env, []fusedPart{{cfg, kernel}}, []*Metrics{env.Metrics})
}

// runChain runs a chain of map kernels through the step loop: one reader
// on the first part's input stream, one writer on the last part's output
// stream, and per step the parts' kernels back-to-back — each handing its
// output block to the next through handoff, never through the broker.
// metrics holds one collector per part; entries may be nil.
func runChain(env *Env, parts []fusedPart, metrics []*Metrics) error {
	lp := make([]loopPart, len(parts))
	for k, p := range parts {
		lp[k] = loopPart{name: p.cfg.Name, stream: p.cfg.InStream, metrics: metrics[k]}
	}
	l := newLoop(env, lp)
	defer l.Close()
	if _, err := l.Reader(parts[0].cfg.InStream); err != nil {
		return err
	}
	w, err := l.Writer(parts[len(parts)-1].cfg.OutStream)
	if err != nil {
		return err
	}
	// Output storage per part. An interior output of a multi-rank chain
	// is gathered by its peers, which may still hold a view of it after
	// this rank has moved on, so those parts keep fresh storage.
	scratch := make([]*Scratch, len(parts))
	for k := range scratch {
		if k == len(parts)-1 || env.Comm.Size() == 1 {
			scratch[k] = &Scratch{}
		}
	}
	return l.Run(func(s *Step) error { return runChainStep(env, parts, s, w, scratch) })
}

// runChainStep is the chain's step body: read this rank's partition, run
// every kernel, republish (unless the resumed writer already has). Each
// part after the first settles the previous part's span and metrics and
// opens its own. The input step stays open until the final output is
// published, so a crash anywhere mid-chain leaves the step unreleased and
// a supervised restart recomputes it from the stream.
//
// The block is read into the reader's step-scoped storage and kernels
// write into scratch, so a steady one-part step makes one copy of the
// data (the box assembly) and allocates no array.
func runChainStep(env *Env, parts []fusedPart, s *Step, w *adios.Writer, scratch []*Scratch) error {
	info := s.Info[0] // the current (real or virtual) step metadata
	var out *StepOutput
	for k := range parts {
		part := &parts[k]
		var in *StepInput
		var err error
		if k == 0 {
			in, err = readInput(env, s, part.cfg.InArray, part.kernel)
		} else {
			s.nextPart()
			info = handoffInfo(&parts[k-1].cfg, info, out, s.N)
			in, err = handoff(s, part.kernel, info, out)
			if err == nil {
				s.BytesIn = int64(in.Block.Size() * 8)
			}
		}
		if err != nil {
			return err
		}
		in.Scratch = scratch[k]
		if out, err = transformKernel(env, part.cfg.Name, part.cfg.InStream, part.kernel, s.span, s.N, in); err != nil {
			return err
		}
		s.BytesOut = int64(len(out.Data) * 8)
	}
	last := &parts[len(parts)-1].cfg
	var forward map[string]string
	if last.ForwardAttrs {
		forward = info.Attrs
	}
	// The kernel's own attributes override forwarded upstream ones.
	return s.Publish(w, s.N, last.OutArray, out.GlobalDims, out.Box, out.Data, forward, out.Attrs)
}

// readInput reads this rank's partition of an array of the loop's first
// input into the reader's step-scoped storage, split as the kernel (map
// or reduce) reserves.
func readInput(env *Env, s *Step, array string, kernel interface {
	ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error)
}) (*StepInput, error) {
	v, err := s.Var(0, array)
	if err != nil {
		return nil, err
	}
	reserved, err := kernel.ReservedAxes(v, s.Info[0])
	if err != nil {
		return nil, err
	}
	box, err := s.Partition(v, reserved...)
	if err != nil {
		return nil, err
	}
	block, err := s.ReadBox(0, array, box)
	if err != nil {
		return nil, err
	}
	return &StepInput{Info: s.Info[0], Var: v, Box: box, Block: block, Env: env, Reader: s.l.ins[0]}, nil
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
