package components

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

const allPairsUsage = "input-stream-name input-array-name output-stream-name output-array-name [sample-size]"

// DefaultAllPairsSample bounds the all-pairs matrix when no sample size
// is given: the output is quadratic in the sample, which is the point —
// this is the class of "analytical procedures that lead to an increase in
// data size" the paper names as future work (§VI).
const DefaultAllPairsSample = 64

// AllPairs computes the pairwise Euclidean distance matrix of (a sample
// of) the input points. Input is two-dimensional (points × coordinates);
// output is (sample × sample), generally larger than the input slice it
// derives from — demonstrating that the SmartBlock packaging also fits
// data-increasing components.
type AllPairs struct {
	InStream, InArray   string
	OutStream, OutArray string
	Sample              int
}

// NewAllPairs parses: input-stream input-array output-stream output-array
// [sample-size].
func NewAllPairs(args []string) (sb.Component, error) {
	if len(args) != 4 && len(args) != 5 {
		return nil, &sb.UsageError{Component: "all-pairs", Usage: allPairsUsage,
			Problem: fmt.Sprintf("need 4 or 5 arguments, got %d", len(args))}
	}
	sample := DefaultAllPairsSample
	if len(args) == 5 {
		n, err := strconv.Atoi(args[4])
		if err != nil || n <= 0 {
			return nil, &sb.UsageError{Component: "all-pairs", Usage: allPairsUsage,
				Problem: fmt.Sprintf("sample-size %q is not a positive integer", args[4])}
		}
		sample = n
	}
	return &AllPairs{
		InStream: args[0], InArray: args[1],
		OutStream: args[2], OutArray: args[3],
		Sample: sample,
	}, nil
}

// Name implements sb.Component.
func (a *AllPairs) Name() string { return "all-pairs" }

// Run implements sb.Component. AllPairs does not fit RunMap's "read your
// own partition" shape: every rank needs the whole sample (each output
// row depends on every sampled point), so each rank reads the sample box
// and computes its row-slab of the distance matrix.
func (a *AllPairs) Run(env *sb.Env) error {
	return sb.RunMap(env, sb.MapConfig{
		Name:     "all-pairs",
		InStream: a.InStream, InArray: a.InArray,
		OutStream: a.OutStream, OutArray: a.OutArray,
	}, &allPairsKernel{a})
}

// allPairsKernel adapts AllPairs to the map loop: the partition assigns
// each rank a slab of sample rows, and Transform re-reads the full
// sample for the columns.
type allPairsKernel struct{ a *AllPairs }

func (k *allPairsKernel) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	if len(v.Dims) != 2 {
		return nil, fmt.Errorf("all-pairs requires a 2-dimensional array, got %d dimensions in %q",
			len(v.Dims), v.Name)
	}
	return []int{1}, nil
}

func (k *allPairsKernel) Transform(in *StepIn) (*StepOut, error) {
	sample := min(k.a.Sample, in.Var.Dims[0].Size)
	coords := in.Var.Dims[1].Size
	// The sampled points are the first `sample` rows of the global array;
	// every rank needs all of them for the column side of its slab.
	full, err := readSample(in, sample, coords)
	if err != nil {
		return nil, err
	}
	// This rank owns rows [lo, hi) of the sample.
	lo, cnt := ndarray.Partition1D(sample, in.Env.Comm.Size(), in.Env.Comm.Rank())
	out := make([]float64, cnt*sample)
	for i := 0; i < cnt; i++ {
		ri := (lo + i) * coords
		for j := 0; j < sample; j++ {
			rj := j * coords
			sum := 0.0
			for c := 0; c < coords; c++ {
				d := full[ri+c] - full[rj+c]
				sum += d * d
			}
			out[i*sample+j] = math.Sqrt(sum)
		}
	}
	label := in.Var.Dims[0].Name
	return &StepOut{
		GlobalDims: []ndarray.Dim{{Name: label, Size: sample}, {Name: label + "_pair", Size: sample}},
		Box:        ndarray.Box{Offsets: []int{lo, 0}, Counts: []int{cnt, sample}},
		Data:       out,
	}, nil
}

// readSample fetches the first `sample` rows of the input array via the
// step reader attached to in. RunMap gave this rank only its own
// partition; the sample may extend beyond it, so this goes back to the
// transport (cached blocks make repeats cheap).
func readSample(in *StepIn, sample, coords int) ([]float64, error) {
	box := ndarray.Box{Offsets: []int{0, 0}, Counts: []int{sample, coords}}
	arr, err := in.Reader.ReadBox(in.Env.Ctx(), in.Var.Name, box)
	if err != nil {
		return nil, fmt.Errorf("all-pairs: reading sample: %w", err)
	}
	return arr.Data(), nil
}

func init() { Register("all-pairs", NewAllPairs) }
