package components

import (
	"fmt"
	"strconv"

	"repro/internal/ndarray"
	"repro/internal/sb"
)

const concatUsage = "input-stream-1 input-array-1 input-stream-2 input-array-2 concat-axis output-stream-name output-array-name"

// Concat is a two-input component: per timestep it joins the arrays from
// two upstream streams along a chosen axis. It is the simplest member of
// the multi-input family that turns SmartBlock pipelines into general
// DAGs (together with Fork on the output side, §VI): two simulations'
// fields can be merged for one analysis, or a Fork's branches re-joined
// after different transforms. Both inputs must agree on every dimension
// except the concatenation axis; the first input's labels win.
type Concat struct {
	InStream1, InArray1 string
	InStream2, InArray2 string
	Axis                int
	OutStream, OutArray string
}

// NewConcat parses: in-stream-1 in-array-1 in-stream-2 in-array-2 axis
// out-stream out-array.
func NewConcat(args []string) (sb.Component, error) {
	if len(args) != 7 {
		return nil, &sb.UsageError{Component: "concat", Usage: concatUsage,
			Problem: fmt.Sprintf("need exactly 7 arguments, got %d", len(args))}
	}
	axis, err := strconv.Atoi(args[4])
	if err != nil || axis < 0 {
		return nil, &sb.UsageError{Component: "concat", Usage: concatUsage,
			Problem: fmt.Sprintf("concat-axis %q is not a non-negative integer", args[4])}
	}
	if args[0] == args[2] {
		return nil, &sb.UsageError{Component: "concat", Usage: concatUsage,
			Problem: "the two input streams must differ (a stream has one reader group)"}
	}
	return &Concat{
		InStream1: args[0], InArray1: args[1],
		InStream2: args[2], InArray2: args[3],
		Axis:      axis,
		OutStream: args[5], OutArray: args[6],
	}, nil
}

// Name implements sb.Component.
func (c *Concat) Name() string { return "concat" }

// Run implements sb.Component. Each rank partitions both inputs along
// the same non-concat axis, joins its two local blocks along the concat
// axis, and publishes the joined block: the output box equals the
// partition box with the concat extent widened to the sum of the inputs.
func (c *Concat) Run(env *sb.Env) error {
	l := sb.NewLoop(env, "concat")
	defer l.Close()
	for _, in := range []string{c.InStream1, c.InStream2} {
		if _, err := l.Reader(in); err != nil {
			return err
		}
	}
	w, err := l.Writer(c.OutStream)
	if err != nil {
		return err
	}
	return l.Run(func(s *sb.Step) error {
		v1, err := s.Var(0, c.InArray1)
		if err != nil {
			return err
		}
		v2, err := s.Var(1, c.InArray2)
		if err != nil {
			return err
		}
		n := len(v1.Dims)
		if len(v2.Dims) != n {
			return fmt.Errorf("inputs have ranks %d and %d", n, len(v2.Dims))
		}
		if c.Axis >= n {
			return fmt.Errorf("axis %d out of range for %d-dimensional inputs", c.Axis, n)
		}
		for i := 0; i < n; i++ {
			if i != c.Axis && v1.Dims[i].Size != v2.Dims[i].Size {
				return fmt.Errorf("extent mismatch in dimension %d: %d vs %d", i, v1.Dims[i].Size, v2.Dims[i].Size)
			}
		}
		box, err := s.Partition(v1, c.Axis)
		if err != nil {
			return err
		}
		b1, err := s.ReadBox(0, c.InArray1, box)
		if err != nil {
			return err
		}
		box2 := box.Clone()
		box2.Counts[c.Axis] = v2.Dims[c.Axis].Size
		b2raw, err := s.ReadBox(1, c.InArray2, box2)
		if err != nil {
			return err
		}
		// Align the second block's labels with the first so Concat's
		// label check passes (first input's labels win by contract).
		dims2 := b1.Dims()
		dims2[c.Axis].Size = b2raw.Dim(c.Axis).Size
		b2, err := ndarray.FromData(b2raw.Data(), dims2...)
		if err != nil {
			return err
		}
		joined, err := ndarray.Concat(c.Axis, b1, b2)
		if err != nil {
			return err
		}
		outDims := make([]ndarray.Dim, n)
		copy(outDims, v1.Dims)
		outDims[c.Axis].Size = v1.Dims[c.Axis].Size + v2.Dims[c.Axis].Size
		outBox := box.Clone()
		outBox.Counts[c.Axis] = outDims[c.Axis].Size
		s.BytesOut = int64(joined.Size() * 8)
		return s.Publish(w, s.N, c.OutArray, outDims, outBox, joined.Data(), s.Info[0].Attrs)
	})
}

func init() { Register("concat", NewConcat) }
