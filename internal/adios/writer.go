package adios

import (
	"context"
	"fmt"

	"repro/internal/ndarray"
	"repro/internal/pool"
)

// Writer is one rank's handle for publishing self-describing timesteps on
// a stream. Usage per timestep mirrors the ADIOS write path:
//
//	w.BeginStep()
//	w.SetAttribute("props", adios.JoinList([]string{"ID", "Type", "vx", "vy", "vz"}))
//	w.Write("atoms", globalDims, myBox, myData)
//	w.EndStep(ctx) // publishes the block; may buffer asynchronously
//
// A Writer is owned by a single rank goroutine. If constructed with a
// Group definition (from an XML config), each Write is validated against
// the declared variables.
type Writer struct {
	bw    BlockWriter
	group *Group // optional declaration to validate against

	step    int
	inStep  bool
	names   []string
	data    [][]float64
	vars    []VarMeta
	attrs   map[string]string
	sticky  map[string]string // attributes repeated on every step
	closed  bool
	written map[string]bool
}

// NewWriter wraps a transport writer rank. group may be nil (undeclared
// mode) or a Group parsed from an XML config, in which case written
// variables must match their declarations.
func NewWriter(bw BlockWriter, group *Group) *Writer {
	return &Writer{bw: bw, group: group, sticky: map[string]string{}}
}

// NewWriterAt wraps a transport writer rank resuming at the given step —
// the supervised-restart path, where a re-attached transport handle
// reports how far the previous incarnation got (flexpath NextStep) and
// publishing must continue from there, not from 0.
func NewWriterAt(bw BlockWriter, group *Group, step int) *Writer {
	w := NewWriter(bw, group)
	if step > 0 {
		w.step = step
	}
	return w
}

// SetStickyAttribute records an attribute carried on every subsequent
// timestep (e.g. the quantity header) without re-declaring it per step.
func (w *Writer) SetStickyAttribute(name, value string) { w.sticky[name] = value }

// BeginStep opens the next timestep for writing. Steps are implicit and
// sequential, matching the paper's assumption that "the driving
// simulation outputs data at regular time steps" (§III-B).
func (w *Writer) BeginStep() error {
	if w.closed {
		return fmt.Errorf("adios: BeginStep on closed writer")
	}
	if w.inStep {
		return fmt.Errorf("adios: BeginStep while step %d is open", w.step)
	}
	w.inStep = true
	w.names = w.names[:0]
	w.data = w.data[:0]
	w.vars = w.vars[:0]
	// Reuse the per-step maps across timesteps: with hundreds of steps a
	// fresh map per step is pure allocator churn.
	if w.attrs == nil {
		w.attrs = make(map[string]string, len(w.sticky)+4)
		w.written = make(map[string]bool, 4)
	} else {
		clear(w.attrs)
		clear(w.written)
	}
	for k, v := range w.sticky {
		w.attrs[k] = v
	}
	return nil
}

// SetAttribute attaches a string attribute to the open timestep.
func (w *Writer) SetAttribute(name, value string) error {
	if !w.inStep {
		return fmt.Errorf("adios: SetAttribute outside a step")
	}
	w.attrs[name] = value
	return nil
}

// Write stages this rank's block of a global variable: the full array's
// labeled dimensions, the box this block occupies, and the block's data
// in row-major order (len == box volume).
func (w *Writer) Write(name string, globalDims []ndarray.Dim, box ndarray.Box, data []float64) error {
	if !w.inStep {
		return fmt.Errorf("adios: Write outside a step")
	}
	if w.written[name] {
		return fmt.Errorf("adios: variable %q written twice in step %d", name, w.step)
	}
	shape := make([]int, len(globalDims))
	for i, d := range globalDims {
		if d.Size < 0 {
			return fmt.Errorf("adios: variable %q has negative global extent in dimension %q", name, d.Name)
		}
		shape[i] = d.Size
	}
	if err := box.ValidIn(shape); err != nil {
		return fmt.Errorf("adios: variable %q: %w", name, err)
	}
	if len(data) != box.Volume() {
		return fmt.Errorf("adios: variable %q: data length %d does not match box volume %d",
			name, len(data), box.Volume())
	}
	if w.group != nil {
		if err := w.group.validate(name, globalDims); err != nil {
			return err
		}
	}
	w.names = append(w.names, name)
	w.data = append(w.data, data)
	w.vars = append(w.vars, VarMeta{
		Name:       name,
		GlobalDims: append([]ndarray.Dim(nil), globalDims...),
		Box:        box.Clone(),
	})
	w.written[name] = true
	return nil
}

// WriteArray stages an entire array as this rank's block, with the global
// shape equal to the array's own shape (single-writer convenience).
func (w *Writer) WriteArray(name string, arr *ndarray.Array) error {
	return w.Write(name, arr.Dims(), ndarray.WholeBox(arr.Shape()), arr.Data())
}

// EndStep seals and publishes the open timestep. The call returns once
// the transport has accepted the block — with an asynchronous transport
// this overlaps downstream consumption with the producer's next step.
//
// The step is encoded into pooled buffers sized by an exact pre-pass and
// published by ownership transfer, so the transport recycles the storage
// when the step retires.
func (w *Writer) EndStep(ctx context.Context) error {
	if !w.inStep {
		return fmt.Errorf("adios: EndStep without BeginStep")
	}
	bm := &BlockMeta{Step: w.step, Vars: w.vars, Attrs: w.attrs}
	meta := encodeInto(pool.Get(MetaSize(bm)), func(dst []byte) []byte {
		return AppendMeta(dst, bm)
	})
	payload := encodeInto(pool.Get(PayloadSize(w.names, w.data)), func(dst []byte) []byte {
		return AppendPayload(dst, w.names, w.data)
	})
	err := w.bw.PublishBlockRef(ctx, w.step, meta, payload)
	if err != nil {
		return err
	}
	w.inStep = false
	w.step++
	return nil
}

// encodeInto runs an append-style encoder over b's storage. The size
// pre-passes are exact, so enc lands in b's backing array with b's exact
// length; the check is defensive — if an encoder ever outgrows its
// pre-pass the freshly allocated result is wrapped instead of publishing
// a stale pooled buffer.
func encodeInto(b *pool.Buf, enc func(dst []byte) []byte) *pool.Buf {
	out := enc(b.Bytes()[:0])
	if len(out) == b.Len() && &out[0] == &b.Bytes()[0] {
		return b
	}
	b.Release()
	return pool.Wrap(out)
}

// Steps reports how many timesteps have been published.
func (w *Writer) Steps() int { return w.step }

// Close ends this rank's participation in the stream. An open step is
// discarded, not published.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.inStep = false
	return w.bw.Close()
}
