package sb

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/adios"
	"repro/internal/mpi"
	"repro/internal/ndarray"
	"repro/internal/obs"
)

// Fusable is implemented by map-style components — those whose Run is a
// single RunMap call — and exposes the kernel seam the stage-fusion
// optimizer composes: the MapConfig naming the component's streams and
// the MapKernel doing the work. A fused stage chains these kernels
// back-to-back on shared ndarray buffers, skipping the broker hop the
// intermediate stream would have cost.
//
// Components whose kernels read beyond their own partition (AllPairs
// re-reads the shared sample through StepInput.Reader) must NOT
// implement Fusable: interior stages of a fused chain have no open
// reader to reach back into.
type Fusable interface {
	Component
	MapSpec() (MapConfig, MapKernel)
}

// fusedPart is one original component inside a chain.
type fusedPart struct {
	cfg    MapConfig
	kernel MapKernel
}

// Fused runs a chain of map-style kernels as a single stage: one reader
// on the chain's first input stream, one writer on its last output
// stream, and in-memory handoffs in between (see handoff). Each original
// component keeps its externally observable identity — its own
// stage.step and kernel.transform spans and its own comp.<name>.*
// metrics — so a trace of a fused workflow still shows every component
// the launch script named.
type Fused struct {
	parts []fusedPart
	name  string

	metricsOnce sync.Once
	metrics     []*Metrics
}

// NewFused composes components into a fused stage. Every component must
// implement Fusable, and each one's output stream and array must be the
// next one's input — the 1:1 edge contract the planner checks before
// electing a chain for fusion.
func NewFused(comps ...Component) (*Fused, error) {
	if len(comps) < 2 {
		return nil, fmt.Errorf("sb: fusing needs at least 2 components, got %d", len(comps))
	}
	parts := make([]fusedPart, len(comps))
	names := make([]string, len(comps))
	for i, c := range comps {
		fc, ok := c.(Fusable)
		if !ok {
			return nil, fmt.Errorf("sb: component %q is not fusable", c.Name())
		}
		cfg, kernel := fc.MapSpec()
		parts[i] = fusedPart{cfg: cfg, kernel: kernel}
		names[i] = cfg.Name
		if i > 0 {
			prev := parts[i-1].cfg
			if prev.OutStream != cfg.InStream {
				return nil, fmt.Errorf("sb: cannot fuse %q into %q: output stream %q != input stream %q",
					prev.Name, cfg.Name, prev.OutStream, cfg.InStream)
			}
			if prev.OutArray != cfg.InArray {
				return nil, fmt.Errorf("sb: cannot fuse %q into %q: output array %q != input array %q",
					prev.Name, cfg.Name, prev.OutArray, cfg.InArray)
			}
		}
	}
	return &Fused{parts: parts, name: strings.Join(names, "+")}, nil
}

// Name implements Component: the fused stage is named after its chain,
// e.g. "select+magnitude".
func (f *Fused) Name() string { return f.name }

// Ports implements PortDeclarer: externally the fused stage subscribes
// to the chain's first input and publishes its last output — the
// interior streams do not exist.
func (f *Fused) Ports() []Port {
	first, last := f.parts[0].cfg, f.parts[len(f.parts)-1].cfg
	return []Port{
		{Dir: PortIn, Stream: first.InStream, Array: first.InArray},
		{Dir: PortOut, Stream: last.OutStream, Array: last.OutArray},
	}
}

// ensureMetrics creates the per-component collectors once; reg may be
// nil (no registry mirroring).
func (f *Fused) ensureMetrics(reg *obs.Registry) {
	f.metricsOnce.Do(func() {
		f.metrics = make([]*Metrics, len(f.parts))
		for i, p := range f.parts {
			f.metrics[i] = NewMetrics(p.cfg.Name)
			f.metrics[i].BindRegistry(reg)
		}
	})
}

// BindMetrics creates one metrics collector per fused component, bound
// to the registry, and returns them in chain order. The workflow runner
// calls this instead of creating a single stage-level collector, so a
// fused run still reports comp.<name>.* for every original component.
func (f *Fused) BindMetrics(reg *obs.Registry) []*Metrics {
	f.ensureMetrics(reg)
	return f.metrics
}

// Run implements Component: the chain's kernels run back-to-back on
// every rank, each handing its output block to the next without a
// broker hop (see runChain).
func (f *Fused) Run(env *Env) error {
	f.ensureMetrics(env.Registry)
	return runChain(env, f.parts, f.metrics)
}

// handoff turns the previous kernel's output into the next kernel's
// input. The next kernel partitions the (virtual) global array exactly
// as it would have partitioned the stream. The ranks gather each
// other's output blocks over the stage's communicator and each
// assembles its box; when that box is this rank's own output block —
// the common case — assembly copies nothing. The gather is collective
// on every rank every step, so a partition disagreement can never
// deadlock it, and a failing rank aborts the world, which wakes every
// peer blocked in it.
func handoff(s *Step, kernel MapKernel, info *adios.StepInfo, prev *StepOutput) (*StepInput, error) {
	env, v := s.l.env, info.Vars[0]
	reserved, err := kernel.ReservedAxes(v, info)
	if err != nil {
		return nil, err
	}
	box, err := s.Partition(v, reserved...)
	if err != nil {
		return nil, err
	}
	outs, err := mpi.Allgather(env.Comm, prev)
	if err != nil {
		return nil, fmt.Errorf("fused exchange: %w", err)
	}
	block, err := assembleBox(outs, box)
	if err != nil {
		return nil, err
	}
	return &StepInput{Info: info, Var: v, Box: box, Block: block, Env: env}, nil
}

// assembleBox builds the requested box of the global array from every
// rank's output block — the M×N bounding-box exchange the broker
// performs for a stream, minus everything a broker exists for. When one
// block covers the box exactly, its data is returned without copying
// (the zero-copy fast path of a partition-aligned edge); otherwise a
// fresh array is filled from every intersecting block. The result's
// axes carry the global dimension names.
func assembleBox(outs []*StepOutput, box ndarray.Box) (*ndarray.Array, error) {
	if len(outs) == 0 {
		return nil, fmt.Errorf("sb: assemble from no blocks")
	}
	dims := make([]ndarray.Dim, len(outs[0].GlobalDims))
	for i, d := range outs[0].GlobalDims {
		dims[i] = ndarray.Dim{Name: d.Name, Size: box.Counts[i]}
	}
	for _, o := range outs {
		if o.Box.Equal(box) {
			return ndarray.FromData(o.Data, dims...)
		}
	}
	dst := ndarray.New(dims...)
	covered := 0
	for _, o := range outs {
		inter, ok := box.Intersect(o.Box)
		if !ok {
			continue
		}
		srcDims := make([]ndarray.Dim, len(inter.Counts))
		for i := range inter.Counts {
			srcDims[i] = ndarray.Dim{Size: o.Box.Counts[i]}
		}
		src, err := ndarray.FromData(o.Data, srcDims...)
		if err != nil {
			return nil, fmt.Errorf("sb: assemble: %w", err)
		}
		srcOff := make([]int, len(inter.Offsets))
		dstOff := make([]int, len(inter.Offsets))
		for i := range inter.Offsets {
			srcOff[i] = inter.Offsets[i] - o.Box.Offsets[i]
			dstOff[i] = inter.Offsets[i] - box.Offsets[i]
		}
		if err := ndarray.CopyRegion(dst, dstOff, src, srcOff, inter.Counts); err != nil {
			return nil, fmt.Errorf("sb: assemble: %w", err)
		}
		covered += inter.Volume()
	}
	if covered != box.Volume() {
		return nil, fmt.Errorf("sb: assemble: blocks cover %d of %d elements of box %v",
			covered, box.Volume(), box)
	}
	return dst, nil
}

// handoffInfo builds the virtual step metadata the next kernel sees:
// the previous kernel's output variable plus exactly the attributes the
// previous stage would have published downstream (forwarded upstream
// attributes when its config asks for it, then its own overrides).
func handoffInfo(prevCfg *MapConfig, prevInfo *adios.StepInfo, out *StepOutput, step int) *adios.StepInfo {
	attrs := make(map[string]string, len(out.Attrs))
	if prevCfg.ForwardAttrs {
		for k, v := range prevInfo.Attrs {
			attrs[k] = v
		}
	}
	for k, v := range out.Attrs {
		attrs[k] = v
	}
	return &adios.StepInfo{
		Step:  step,
		Vars:  []*adios.GlobalVar{{Name: prevCfg.OutArray, Dims: out.GlobalDims}},
		Attrs: attrs,
	}
}
