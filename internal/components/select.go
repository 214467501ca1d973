package components

import (
	"fmt"
	"strconv"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

// selectUsage mirrors Fig. 1 of the paper.
const selectUsage = "input-stream-name input-array-name dimension-index output-stream-name output-array-name [arg1] [arg2] ..."

// Select extracts named rows from one dimension of its input array
// (§III-C). The rows are identified by name against the header the
// upstream component attached for that dimension, "which is easier to do
// when preparing the launch script" than numeric indices. The output has
// the same number of dimensions with the filtered dimension shrunk, and
// carries an updated header so downstream components keep full semantics.
type Select struct {
	InStream, InArray   string
	OutStream, OutArray string
	DimIndex            int
	Names               []string
}

// NewSelect parses the paper's argument order (Fig. 1).
func NewSelect(args []string) (sb.Component, error) {
	if len(args) < 6 {
		return nil, &sb.UsageError{Component: "select", Usage: selectUsage,
			Problem: fmt.Sprintf("need at least 6 arguments, got %d", len(args))}
	}
	dim, err := strconv.Atoi(args[2])
	if err != nil || dim < 0 {
		return nil, &sb.UsageError{Component: "select", Usage: selectUsage,
			Problem: fmt.Sprintf("dimension-index %q is not a non-negative integer", args[2])}
	}
	return &Select{
		InStream: args[0], InArray: args[1],
		DimIndex:  dim,
		OutStream: args[3], OutArray: args[4],
		Names: append([]string(nil), args[5:]...),
	}, nil
}

// Name implements sb.Component.
func (s *Select) Name() string { return "select" }

// Run implements sb.Component via the kernel seam (see ports.go).
func (s *Select) Run(env *sb.Env) error {
	cfg, kernel := s.MapSpec()
	return sb.RunMap(env, cfg, kernel)
}

// ReservedAxes implements sb.MapKernel: the filtered axis must stay whole
// on every rank so each rank can select by index locally.
func (s *Select) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	if s.DimIndex >= len(v.Dims) {
		return nil, fmt.Errorf("dimension-index %d out of range for %d-dimensional array %q",
			s.DimIndex, len(v.Dims), v.Name)
	}
	return []int{s.DimIndex}, nil
}

// Transform implements sb.MapKernel.
func (s *Select) Transform(in *StepIn) (*StepOut, error) {
	header := HeaderFor(in.Info, in.Var, s.DimIndex)
	if header == nil {
		return nil, fmt.Errorf("select: no header attribute %q on stream; upstream must label dimension %q",
			HeaderAttr(in.Var.Dims[s.DimIndex].Name), in.Var.Dims[s.DimIndex].Name)
	}
	if len(header) != in.Var.Dims[s.DimIndex].Size {
		return nil, fmt.Errorf("select: header for dimension %q has %d names for extent %d",
			in.Var.Dims[s.DimIndex].Name, len(header), in.Var.Dims[s.DimIndex].Size)
	}
	pos := make(map[string]int, len(header))
	for i, name := range header {
		if _, dup := pos[name]; dup {
			return nil, fmt.Errorf("select: header names dimension entry %q twice", name)
		}
		pos[name] = i
	}
	indices := make([]int, len(s.Names))
	for i, name := range s.Names {
		p, ok := pos[name]
		if !ok {
			return nil, fmt.Errorf("select: name %q not in header %v", name, header)
		}
		indices[i] = p
	}
	shape := in.Block.Shape()
	shape[s.DimIndex] = len(indices)
	outBlock, err := in.Block.SelectIndicesInto(in.Scratch.Floats(ndarray.Volume(shape)), s.DimIndex, indices)
	if err != nil {
		return nil, fmt.Errorf("select: %w", err)
	}
	globalDims := in.Var.Dims
	outDims := make([]ndarray.Dim, len(globalDims))
	copy(outDims, globalDims)
	outDims[s.DimIndex].Size = len(s.Names)
	outBox := in.Box.Clone()
	outBox.Offsets[s.DimIndex] = 0
	outBox.Counts[s.DimIndex] = len(s.Names)
	return &StepOut{
		GlobalDims: outDims,
		Box:        outBox,
		Data:       outBlock.Data(),
		Attrs: map[string]string{
			// Re-label the filtered dimension so downstream Selects (or any
			// semantics-aware component) still know what each row is.
			HeaderAttr(outDims[s.DimIndex].Name): adios.JoinList(s.Names),
		},
	}, nil
}

// StepIn and StepOut alias the framework types so kernels in this
// package read naturally.
type (
	StepIn  = sb.StepInput
	StepOut = sb.StepOutput
)

func init() { Register("select", NewSelect) }
