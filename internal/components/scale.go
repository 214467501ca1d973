package components

import (
	"fmt"
	"strconv"

	"repro/internal/adios"
	"repro/internal/sb"
)

const scaleUsage = "input-stream-name input-array-name factor offset output-stream-name output-array-name"

// Scale is a generic element-wise affine transform, y = factor·x +
// offset, on an array of any dimensionality — the simplest possible
// data-manipulation primitive (unit conversions, normalizations) in the
// style the paper's design guidelines call for: "data manipulation
// primitives and data analysis components should be packaged in similar
// ways" (§III-A1). It preserves shape, labels and attributes.
type Scale struct {
	InStream, InArray   string
	OutStream, OutArray string
	Factor, Offset      float64
}

// NewScale parses: input-stream input-array factor offset output-stream
// output-array.
func NewScale(args []string) (sb.Component, error) {
	if len(args) != 6 {
		return nil, &sb.UsageError{Component: "scale", Usage: scaleUsage,
			Problem: fmt.Sprintf("need exactly 6 arguments, got %d", len(args))}
	}
	factor, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return nil, &sb.UsageError{Component: "scale", Usage: scaleUsage,
			Problem: fmt.Sprintf("factor %q is not a number", args[2])}
	}
	offset, err := strconv.ParseFloat(args[3], 64)
	if err != nil {
		return nil, &sb.UsageError{Component: "scale", Usage: scaleUsage,
			Problem: fmt.Sprintf("offset %q is not a number", args[3])}
	}
	return &Scale{
		InStream: args[0], InArray: args[1],
		Factor: factor, Offset: offset,
		OutStream: args[4], OutArray: args[5],
	}, nil
}

// Name implements sb.Component.
func (s *Scale) Name() string { return "scale" }

// Run implements sb.Component via the kernel seam (see ports.go).
func (s *Scale) Run(env *sb.Env) error {
	cfg, kernel := s.MapSpec()
	return sb.RunMap(env, cfg, kernel)
}

// ReservedAxes implements sb.MapKernel: element-wise, any axis may be
// partitioned.
func (s *Scale) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}

// Transform implements sb.MapKernel.
func (s *Scale) Transform(in *StepIn) (*StepOut, error) {
	out := make([]float64, in.Block.Size())
	for i, v := range in.Block.Data() {
		out[i] = s.Factor*v + s.Offset
	}
	return &StepOut{
		GlobalDims: in.Var.Dims,
		Box:        in.Box,
		Data:       out,
	}, nil
}

func init() { Register("scale", NewScale) }
