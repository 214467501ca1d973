package components

import (
	"fmt"
	"strconv"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

// dimReduceUsage mirrors Fig. 3 of the paper.
const dimReduceUsage = "input-stream-name input-array-name dim-to-remove dim-to-grow output-stream-name output-array-name"

// DimReduce removes one dimension from its input array, "absorbing" it
// into another dimension without modifying the total size of the data
// (§III-F). It exists because downstream components expect data of a
// particular dimensionality, and multi-dimensional data has a specific
// order in memory: the operation can require re-arranging the linear
// representation, not just re-labeling it.
type DimReduce struct {
	InStream, InArray   string
	OutStream, OutArray string
	Remove, Grow        int
}

// NewDimReduce parses the paper's argument order (Fig. 3).
func NewDimReduce(args []string) (sb.Component, error) {
	if len(args) != 6 {
		return nil, &sb.UsageError{Component: "dim-reduce", Usage: dimReduceUsage,
			Problem: fmt.Sprintf("need exactly 6 arguments, got %d", len(args))}
	}
	remove, err := strconv.Atoi(args[2])
	if err != nil || remove < 0 {
		return nil, &sb.UsageError{Component: "dim-reduce", Usage: dimReduceUsage,
			Problem: fmt.Sprintf("dim-to-remove %q is not a non-negative integer", args[2])}
	}
	grow, err := strconv.Atoi(args[3])
	if err != nil || grow < 0 {
		return nil, &sb.UsageError{Component: "dim-reduce", Usage: dimReduceUsage,
			Problem: fmt.Sprintf("dim-to-grow %q is not a non-negative integer", args[3])}
	}
	if remove == grow {
		return nil, &sb.UsageError{Component: "dim-reduce", Usage: dimReduceUsage,
			Problem: "dim-to-remove and dim-to-grow must differ"}
	}
	return &DimReduce{
		InStream: args[0], InArray: args[1],
		Remove: remove, Grow: grow,
		OutStream: args[4], OutArray: args[5],
	}, nil
}

// Name implements sb.Component.
func (d *DimReduce) Name() string { return "dim-reduce" }

// Run implements sb.Component via the kernel seam (see ports.go).
func (d *DimReduce) Run(env *sb.Env) error {
	cfg, kernel := d.MapSpec()
	return sb.RunMap(env, cfg, kernel)
}

// ReservedAxes implements sb.MapKernel. The removed axis must be whole
// on every rank: a block holding only part of it would scatter to a
// strided (non-box) region of the output. The grow axis may be
// partitioned — a contiguous grow range maps to a contiguous merged
// range because the merged coordinate is grow*removeSize + remove.
func (d *DimReduce) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	n := len(v.Dims)
	if d.Remove >= n {
		return nil, fmt.Errorf("dim-to-remove %d out of range for %d-dimensional array %q", d.Remove, n, v.Name)
	}
	if d.Grow >= n {
		return nil, fmt.Errorf("dim-to-grow %d out of range for %d-dimensional array %q", d.Grow, n, v.Name)
	}
	return []int{d.Remove}, nil
}

// Transform implements sb.MapKernel.
func (d *DimReduce) Transform(in *StepIn) (*StepOut, error) {
	reduced, err := in.Block.DimReduceWith(sb.ParallelFor, in.Scratch.Floats(in.Block.Size()), d.Remove, d.Grow)
	if err != nil {
		return nil, fmt.Errorf("dim-reduce: %w", err)
	}
	removeSize := in.Var.Dims[d.Remove].Size
	// Global output dims: input order minus the removed axis, with the
	// grow axis multiplied — mirroring ndarray.DimReduce's layout rule.
	outDims := make([]ndarray.Dim, 0, len(in.Var.Dims)-1)
	outBox := ndarray.Box{}
	for i, dim := range in.Var.Dims {
		if i == d.Remove {
			continue
		}
		if i == d.Grow {
			outDims = append(outDims, ndarray.Dim{Name: dim.Name, Size: dim.Size * removeSize})
			outBox.Offsets = append(outBox.Offsets, in.Box.Offsets[i]*removeSize)
			outBox.Counts = append(outBox.Counts, in.Box.Counts[i]*removeSize)
			continue
		}
		outDims = append(outDims, dim)
		outBox.Offsets = append(outBox.Offsets, in.Box.Offsets[i])
		outBox.Counts = append(outBox.Counts, in.Box.Counts[i])
	}
	return &StepOut{
		GlobalDims: outDims,
		Box:        outBox,
		Data:       reduced.Data(),
	}, nil
}

func init() { Register("dim-reduce", NewDimReduce) }
