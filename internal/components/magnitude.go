package components

import (
	"fmt"
	"math"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

// magnitudeUsage mirrors the component's launch line in Fig. 8.
const magnitudeUsage = "input-stream-name input-array-name output-stream-name output-array-name"

// Magnitude computes the Euclidean magnitudes of an array of vectors
// (§III-D): a two-dimensional input where the first dimension spans the
// data points and the second spans the vector components of each point
// (e.g. the three velocity components), reduced to a one-dimensional
// array of magnitudes. "This SmartBlock component only takes the names
// of the input and output streams as command-line parameters, since it
// always operates on a two-dimensional array."
type Magnitude struct {
	InStream, InArray   string
	OutStream, OutArray string
}

// NewMagnitude parses the component's four positional arguments.
func NewMagnitude(args []string) (sb.Component, error) {
	if len(args) != 4 {
		return nil, &sb.UsageError{Component: "magnitude", Usage: magnitudeUsage,
			Problem: fmt.Sprintf("need exactly 4 arguments, got %d", len(args))}
	}
	return &Magnitude{
		InStream: args[0], InArray: args[1],
		OutStream: args[2], OutArray: args[3],
	}, nil
}

// Name implements sb.Component.
func (m *Magnitude) Name() string { return "magnitude" }

// Run implements sb.Component via the kernel seam (see ports.go).
func (m *Magnitude) Run(env *sb.Env) error {
	cfg, kernel := m.MapSpec()
	return sb.RunMap(env, cfg, kernel)
}

// ReservedAxes implements sb.MapKernel: partitioning must be across the
// points (axis 0); every rank needs each point's full component vector.
func (m *Magnitude) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	if len(v.Dims) != 2 {
		return nil, fmt.Errorf("magnitude requires a 2-dimensional array, got %d dimensions in %q",
			len(v.Dims), v.Name)
	}
	return []int{1}, nil
}

// Transform implements sb.MapKernel.
func (m *Magnitude) Transform(in *StepIn) (*StepOut, error) {
	points := in.Block.Dim(0).Size
	comps := in.Block.Dim(1).Size
	if comps == 0 {
		return nil, fmt.Errorf("magnitude: vectors have zero components")
	}
	data := in.Block.Data()
	out := in.Scratch.Floats(points)
	// Each point is independent, so the loop shards across GOMAXPROCS
	// goroutines (serial on a single-core host).
	sb.ParallelFor(points, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			sum := 0.0
			row := data[p*comps : (p+1)*comps]
			for _, c := range row {
				sum += c * c
			}
			out[p] = math.Sqrt(sum)
		}
	})
	return &StepOut{
		GlobalDims: []ndarray.Dim{{Name: in.Var.Dims[0].Name, Size: in.Var.Dims[0].Size}},
		Box: ndarray.Box{
			Offsets: []int{in.Box.Offsets[0]},
			Counts:  []int{in.Box.Counts[0]},
		},
		Data: out,
	}, nil
}

func init() { Register("magnitude", NewMagnitude) }
