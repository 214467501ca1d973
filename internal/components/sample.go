package components

import (
	"fmt"
	"strconv"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

const sampleUsage = "input-stream-name input-array-name stride output-stream-name output-array-name"

// Sample is a generic decimation component: it keeps every stride-th
// index along the first dimension (the "units" dimension — particles,
// atoms, gridpoints), shrinking the dataset by ~stride× while preserving
// dimensionality and labels. Decimation is the classic first step of an
// in situ visualization pipeline when the full-resolution stream exceeds
// what downstream components can ingest.
type Sample struct {
	InStream, InArray   string
	OutStream, OutArray string
	Stride              int
}

// NewSample parses: input-stream input-array stride output-stream
// output-array.
func NewSample(args []string) (sb.Component, error) {
	if len(args) != 5 {
		return nil, &sb.UsageError{Component: "sample", Usage: sampleUsage,
			Problem: fmt.Sprintf("need exactly 5 arguments, got %d", len(args))}
	}
	stride, err := strconv.Atoi(args[2])
	if err != nil || stride <= 0 {
		return nil, &sb.UsageError{Component: "sample", Usage: sampleUsage,
			Problem: fmt.Sprintf("stride %q is not a positive integer", args[2])}
	}
	return &Sample{
		InStream: args[0], InArray: args[1],
		Stride:    stride,
		OutStream: args[3], OutArray: args[4],
	}, nil
}

// Name implements sb.Component.
func (s *Sample) Name() string { return "sample" }

// Run implements sb.Component via the kernel seam (see ports.go).
func (s *Sample) Run(env *sb.Env) error {
	cfg, kernel := s.MapSpec()
	return sb.RunMap(env, cfg, kernel)
}

// ReservedAxes implements sb.MapKernel. Any axis may be partitioned:
// kept indices along axis 0 map contiguously for every contiguous input
// range, whether or not axis 0 is the partitioned one.
func (s *Sample) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	if len(v.Dims) == 0 {
		return nil, fmt.Errorf("sample requires at least one dimension in %q", v.Name)
	}
	return nil, nil
}

// ceilDiv is ceil(a/b) for non-negative a, positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Transform implements sb.MapKernel: keep global indices g ≡ 0 (mod
// stride) along axis 0. For this rank's range [o, o+c) the kept output
// indices are exactly [ceil(o/k), ceil((o+c)/k)) — contiguous, so the
// result is a valid box in the decimated global array.
func (s *Sample) Transform(in *StepIn) (*StepOut, error) {
	k := s.Stride
	o := in.Box.Offsets[0]
	c := in.Box.Counts[0]
	outLo := ceilDiv(o, k)
	outHi := ceilDiv(o+c, k)
	local := make([]int, 0, outHi-outLo)
	for g := outLo * k; g < o+c; g += k {
		if g >= o {
			local = append(local, g-o)
		}
	}
	block, err := in.Block.SelectIndices(0, local)
	if err != nil {
		return nil, fmt.Errorf("sample: %w", err)
	}
	outDims := make([]ndarray.Dim, len(in.Var.Dims))
	copy(outDims, in.Var.Dims)
	outDims[0].Size = ceilDiv(in.Var.Dims[0].Size, k)
	outBox := in.Box.Clone()
	outBox.Offsets[0] = outLo
	outBox.Counts[0] = outHi - outLo
	return &StepOut{
		GlobalDims: outDims,
		Box:        outBox,
		Data:       block.Data(),
	}, nil
}

func init() { Register("sample", NewSample) }
