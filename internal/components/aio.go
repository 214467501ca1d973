package components

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/adios"
	"repro/internal/sb"
)

const aioUsage = "input-stream-name input-array-name dimension-index num-bins output-path|- name1 [name2] ..."

// AIO is the custom, all-in-one baseline of the Table II comparison
// (§V-C): a single fixed component "that performs the same analytical
// procedure as all the components involved in the LAMMPS workflow" —
// select the named vector components, compute magnitudes, and histogram
// them — without any intermediate stream hops. SmartBlock's componentized
// pipeline is validated by showing its end-to-end time stays within a few
// percent of this code.
type AIO struct {
	InStream, InArray string
	DimIndex          int
	NumBins           int
	OutPath           string // "-" or empty disables file output
	Names             []string

	rec recorder[StepHistogram]
}

// NewAIO parses: input-stream input-array dimension-index num-bins
// output-path|- name....
func NewAIO(args []string) (sb.Component, error) {
	if len(args) < 6 {
		return nil, &sb.UsageError{Component: "aio", Usage: aioUsage,
			Problem: fmt.Sprintf("need at least 6 arguments, got %d", len(args))}
	}
	dim, err := strconv.Atoi(args[2])
	if err != nil || dim < 0 {
		return nil, &sb.UsageError{Component: "aio", Usage: aioUsage,
			Problem: fmt.Sprintf("dimension-index %q is not a non-negative integer", args[2])}
	}
	bins, err := strconv.Atoi(args[3])
	if err != nil || bins <= 0 {
		return nil, &sb.UsageError{Component: "aio", Usage: aioUsage,
			Problem: fmt.Sprintf("num-bins %q is not a positive integer", args[3])}
	}
	path := args[4]
	if path == "-" {
		path = ""
	}
	return &AIO{
		InStream: args[0], InArray: args[1],
		DimIndex: dim, NumBins: bins, OutPath: path,
		Names: append([]string(nil), args[5:]...),
	}, nil
}

// Name implements sb.Component.
func (a *AIO) Name() string { return "aio" }

// Results returns the per-timestep histograms accumulated by rank 0.
func (a *AIO) Results() []StepHistogram { return a.rec.all() }

// ReservedAxes implements sb.ReduceKernel: the property axis must stay
// whole on every rank for the fused select+magnitude.
func (a *AIO) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	if a.DimIndex != 1 {
		return nil, fmt.Errorf("dimension-index must be 1 (vector components on the second axis), got %d", a.DimIndex)
	}
	return []int{1}, nil
}

// Reduce implements sb.ReduceKernel: the fused select → magnitude →
// histogram pass over this rank's block, with no intermediate stream
// exchange.
func (a *AIO) Reduce(in *StepIn) (StepHistogram, error) {
	header := HeaderFor(in.Info, in.Var, a.DimIndex)
	if header == nil {
		return StepHistogram{}, fmt.Errorf("no header attribute for dimension %q", in.Var.Dims[a.DimIndex].Name)
	}
	pos := map[string]int{}
	for i, name := range header {
		pos[name] = i
	}
	indices := make([]int, len(a.Names))
	for i, name := range a.Names {
		p, ok := pos[name]
		if !ok {
			return StepHistogram{}, fmt.Errorf("name %q not in header %v", name, header)
		}
		indices[i] = p
	}
	// Fused select + magnitude on the local block.
	points := in.Block.Dim(0).Size
	props := in.Block.Dim(1).Size
	data := in.Block.Data()
	mags := make([]float64, points)
	for p := 0; p < points; p++ {
		sum := 0.0
		for _, ix := range indices {
			c := data[p*props+ix]
			sum += c * c
		}
		mags[p] = math.Sqrt(sum)
	}
	return ComputeHistogram(in.Env.Comm, mags, a.NumBins)
}

// Run implements sb.Component.
func (a *AIO) Run(env *sb.Env) error {
	return a.rec.run(env, a.OutPath, histogramText(a.InArray), sb.ReduceConfig[StepHistogram]{
		Name:     "aio",
		InStream: a.InStream, InArray: a.InArray,
		RequireDims: 2,
		OutBytes:    int64(a.NumBins * 8),
	}, a)
}

func init() { Register("aio", NewAIO) }
