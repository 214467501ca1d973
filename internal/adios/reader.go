package adios

import (
	"context"
	"fmt"

	"repro/internal/ndarray"
)

// GlobalVar is a reader's view of one variable in the current timestep:
// its labeled global dimensions and the per-writer-rank blocks it is
// scattered across.
type GlobalVar struct {
	Name string
	Dims []ndarray.Dim

	blocks []blockRef
}

type blockRef struct {
	writerRank int
	box        ndarray.Box
}

// Shape returns the global extents.
func (v *GlobalVar) Shape() []int {
	out := make([]int, len(v.Dims))
	for i, d := range v.Dims {
		out[i] = d.Size
	}
	return out
}

// FindDim returns the index of the dimension with the given label, or -1.
func (v *GlobalVar) FindDim(name string) int {
	for i, d := range v.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// StepInfo is the self-describing metadata of one timestep as seen by a
// reader rank: the step number, the global variables, and the merged
// attributes. It is what lets a component "discover the dimensions and
// their sizes of the data it receives from its upstream component"
// (§III-B) before reading any bulk data.
type StepInfo struct {
	Step  int
	Vars  []*GlobalVar
	Attrs map[string]string
}

// Var looks up a variable by name.
func (si *StepInfo) Var(name string) (*GlobalVar, bool) {
	for _, v := range si.Vars {
		if v.Name == name {
			return v, true
		}
	}
	return nil, false
}

// ListAttr returns a list-valued attribute (such as the quantity header),
// or nil if absent.
func (si *StepInfo) ListAttr(name string) []string {
	return SplitList(si.Attrs[name])
}

// Reader is one rank's handle for consuming self-describing timesteps.
// The read path mirrors ADIOS:
//
//	info, err := r.BeginStep(ctx)   // blocks; io.EOF when the stream ends
//	v, _ := info.Var("atoms")
//	box := ndarray.PartitionAlong(v.Shape(), 0, size, rank)
//	block, err := r.ReadBox(ctx, "atoms", box)
//	r.EndStep()                      // releases the step
type Reader struct {
	br BlockReader

	step    int
	inStep  bool
	info    *StepInfo
	decoded map[int]map[string][]float64 // writerRank → var → values
	closed  bool

	// arena is the step-scoped assembly storage ReadBoxScoped hands out,
	// reused from step to step; used is how much the open step has taken.
	arena []float64
	used  int
}

// NewReader wraps a transport reader rank.
func NewReader(br BlockReader) *Reader {
	return &Reader{br: br}
}

// NewReaderAt wraps a transport reader rank resuming at the given step —
// the supervised-restart path, where a re-attached transport handle
// reports the group's common resume point (flexpath NextStep) and
// consumption continues from there instead of step 0.
func NewReaderAt(br BlockReader, step int) *Reader {
	r := NewReader(br)
	if step > 0 {
		r.step = step
	}
	return r
}

// NextStep returns the timestep the next BeginStep will open — 0 on a
// fresh stream, or the resume point on a reader re-attached mid-stream.
func (r *Reader) NextStep() int { return r.step }

// BeginStep blocks until the next timestep is available and returns its
// metadata. It returns io.EOF once the stream has ended.
func (r *Reader) BeginStep(ctx context.Context) (*StepInfo, error) {
	if r.closed {
		return nil, fmt.Errorf("adios: BeginStep on closed reader")
	}
	if r.inStep {
		return nil, fmt.Errorf("adios: BeginStep while step %d is open", r.step)
	}
	metas, err := r.br.StepMeta(ctx, r.step)
	if err != nil {
		return nil, err
	}
	info := &StepInfo{Step: r.step, Attrs: map[string]string{}}
	byName := map[string]*GlobalVar{}
	for rank, blob := range metas {
		bm, err := DecodeMeta(blob)
		if err != nil {
			return nil, fmt.Errorf("adios: writer rank %d: %w", rank, err)
		}
		if bm.Step != r.step {
			return nil, fmt.Errorf("adios: writer rank %d metadata is for step %d, want %d", rank, bm.Step, r.step)
		}
		for _, vm := range bm.Vars {
			gv, ok := byName[vm.Name]
			if !ok {
				gv = &GlobalVar{Name: vm.Name, Dims: append([]ndarray.Dim(nil), vm.GlobalDims...)}
				byName[vm.Name] = gv
				info.Vars = append(info.Vars, gv)
			} else if !dimsEqual(gv.Dims, vm.GlobalDims) {
				return nil, fmt.Errorf("adios: variable %q: writer rank %d declares global dims %v, others %v",
					vm.Name, rank, vm.GlobalDims, gv.Dims)
			}
			if err := vm.Box.ValidIn(vm.GlobalShape()); err != nil {
				return nil, fmt.Errorf("adios: variable %q block from rank %d: %w", vm.Name, rank, err)
			}
			gv.blocks = append(gv.blocks, blockRef{writerRank: rank, box: vm.Box})
		}
		// Attributes must agree where they overlap; rank order wins ties
		// deterministically (first writer to declare).
		for k, v := range bm.Attrs {
			if prev, ok := info.Attrs[k]; ok && prev != v {
				return nil, fmt.Errorf("adios: attribute %q disagrees across writer ranks: %q vs %q", k, prev, v)
			} else if !ok {
				info.Attrs[k] = v
			}
		}
	}
	r.inStep = true
	r.info = info
	r.decoded = map[int]map[string][]float64{}
	return info, nil
}

func dimsEqual(a, b []ndarray.Dim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ReadBox assembles the requested bounding box of a variable from every
// writer block that intersects it (the MxN redistribution). The returned
// array's dimensions carry the variable's labels with the box's counts.
// The array is the caller's: it stays valid after EndStep.
func (r *Reader) ReadBox(ctx context.Context, varName string, box ndarray.Box) (*ndarray.Array, error) {
	return r.readBox(ctx, varName, box, false)
}

// ReadBoxScoped is ReadBox assembling into storage the reader owns and
// reuses across steps. The array is valid only until EndStep (or Close):
// the next step's scoped reads overwrite it. It is for step loops that
// finish with the block inside the step — a step no longer costs a fresh
// array per read.
func (r *Reader) ReadBoxScoped(ctx context.Context, varName string, box ndarray.Box) (*ndarray.Array, error) {
	return r.readBox(ctx, varName, box, true)
}

// stepFloats takes n values of step-scoped storage. When the arena is
// too small for the step it is replaced by one sized for everything the
// step has taken so far; earlier arrays of the step keep the old one.
func (r *Reader) stepFloats(n int) []float64 {
	if r.used+n > cap(r.arena) {
		r.arena = make([]float64, max(r.used+n, 2*cap(r.arena)))
		r.used = 0
	}
	out := r.arena[r.used : r.used+n : r.used+n]
	r.used += n
	return out
}

func (r *Reader) readBox(ctx context.Context, varName string, box ndarray.Box, scoped bool) (*ndarray.Array, error) {
	if !r.inStep {
		return nil, fmt.Errorf("adios: ReadBox outside a step")
	}
	gv, ok := r.info.Var(varName)
	if !ok {
		return nil, fmt.Errorf("adios: step %d has no variable %q", r.info.Step, varName)
	}
	if err := box.ValidIn(gv.Shape()); err != nil {
		return nil, fmt.Errorf("adios: variable %q: %w", varName, err)
	}
	dims := make([]ndarray.Dim, len(gv.Dims))
	for i, d := range gv.Dims {
		dims[i] = ndarray.Dim{Name: d.Name, Size: box.Counts[i]}
	}
	var data []float64
	if scoped {
		data = r.stepFloats(box.Volume())
	} else {
		data = make([]float64, box.Volume())
	}
	out, err := ndarray.FromData(data, dims...)
	if err != nil {
		return nil, err
	}
	if out.Size() == 0 {
		return out, nil
	}
	covered := 0
	for _, blk := range gv.blocks {
		inter, ok := box.Intersect(blk.box)
		if !ok {
			continue
		}
		vals, err := r.blockValues(ctx, blk.writerRank, varName)
		if err != nil {
			return nil, err
		}
		blockDims := make([]ndarray.Dim, len(gv.Dims))
		for i := range blockDims {
			blockDims[i] = ndarray.Dim{Name: gv.Dims[i].Name, Size: blk.box.Counts[i]}
		}
		src, err := ndarray.FromData(vals, blockDims...)
		if err != nil {
			return nil, fmt.Errorf("adios: variable %q block from rank %d: %w", varName, blk.writerRank, err)
		}
		n := len(gv.Dims)
		dstOff := make([]int, n)
		srcOff := make([]int, n)
		for i := 0; i < n; i++ {
			dstOff[i] = inter.Offsets[i] - box.Offsets[i]
			srcOff[i] = inter.Offsets[i] - blk.box.Offsets[i]
		}
		if err := ndarray.CopyRegion(out, dstOff, src, srcOff, inter.Counts); err != nil {
			return nil, err
		}
		covered += inter.Volume()
	}
	if covered < box.Volume() {
		return nil, fmt.Errorf("adios: variable %q: writer blocks cover only %d of %d requested elements",
			varName, covered, box.Volume())
	}
	return out, nil
}

// ReadAll reads the entire global array of a variable.
func (r *Reader) ReadAll(ctx context.Context, varName string) (*ndarray.Array, error) {
	if !r.inStep {
		return nil, fmt.Errorf("adios: ReadAll outside a step")
	}
	gv, ok := r.info.Var(varName)
	if !ok {
		return nil, fmt.Errorf("adios: step %d has no variable %q", r.info.Step, varName)
	}
	return r.ReadBox(ctx, varName, ndarray.WholeBox(gv.Shape()))
}

// blockValues fetches and decodes one writer rank's payload, caching the
// decoded form for the remainder of the step so several ReadBox calls
// (or several variables) fetch each block at most once. The decoded
// slices may alias the transport's frame (see DecodePayload), which is
// why EndStep drops this cache before releasing the step.
func (r *Reader) blockValues(ctx context.Context, writerRank int, varName string) ([]float64, error) {
	if r.decoded == nil {
		r.decoded = map[int]map[string][]float64{}
	}
	byVar, ok := r.decoded[writerRank]
	if !ok {
		blob, err := r.br.FetchBlock(ctx, r.info.Step, writerRank)
		if err != nil {
			return nil, err
		}
		byVar, err = DecodePayload(blob)
		if err != nil {
			return nil, fmt.Errorf("adios: payload from writer rank %d: %w", writerRank, err)
		}
		r.decoded[writerRank] = byVar
	}
	vals, ok := byVar[varName]
	if !ok {
		return nil, fmt.Errorf("adios: writer rank %d payload lacks variable %q", writerRank, varName)
	}
	return vals, nil
}

// EndStep releases the current timestep back to the transport, allowing
// the writer-side queue to advance, and arms the reader for the next one.
//
// The decoded-payload cache is dropped BEFORE the release: its value
// slices may alias transport-owned frames (zero-copy decode), and on a
// pooled transport the step's buffers may be recycled the moment this
// rank's release retires the step. Arrays from ReadBoxScoped end here
// too: the next step reuses their storage.
func (r *Reader) EndStep() error {
	if !r.inStep {
		return fmt.Errorf("adios: EndStep without BeginStep")
	}
	r.decoded = nil
	r.used = 0
	if err := r.br.ReleaseStep(r.step); err != nil {
		return err
	}
	r.inStep = false
	r.info = nil
	r.step++
	return nil
}

// Close ends this rank's participation in the stream. Decoded views are
// dropped first: a closed rank stops gating step retirement, so frames
// it was reading may recycle immediately.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.decoded = nil
	r.arena = nil
	r.info = nil
	return r.br.Close()
}
