package components

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/adios"
	"repro/internal/mpi"
	"repro/internal/sb"
)

// histogramUsage mirrors Fig. 2 of the paper.
const histogramUsage = "input-stream-name input-array-name num-bins [output-path]"

// StepHistogram is the human-readable reduction a workflow ends with: the
// distribution of a quantity over all units for one timestep.
type StepHistogram struct {
	Step   int
	Min    float64
	Max    float64
	Counts []int64
	Total  int64
}

// Bin returns the half-open value interval covered by bin i (the last
// bin is closed at Max).
func (h StepHistogram) Bin(i int) (lo, hi float64) {
	width := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + float64(i)*width, h.Min + float64(i+1)*width
}

// Histogram partitions a one-dimensional array among its ranks,
// communicates to discover the global minimum and maximum, bins the
// values between those extremes, and merges the per-rank counts (§III-E).
// As in the paper's implementation, one process (rank 0) writes the
// output — the result is tiny compared to the input — making Histogram a
// workflow endpoint.
type Histogram struct {
	InStream, InArray string
	NumBins           int
	OutPath           string // optional; empty disables file output

	rec recorder[StepHistogram]
}

// NewHistogram parses the paper's argument order (Fig. 2), with an
// optional trailing output path.
func NewHistogram(args []string) (sb.Component, error) {
	if len(args) != 3 && len(args) != 4 {
		return nil, &sb.UsageError{Component: "histogram", Usage: histogramUsage,
			Problem: fmt.Sprintf("need 3 or 4 arguments, got %d", len(args))}
	}
	bins, err := strconv.Atoi(args[2])
	if err != nil || bins <= 0 {
		return nil, &sb.UsageError{Component: "histogram", Usage: histogramUsage,
			Problem: fmt.Sprintf("num-bins %q is not a positive integer", args[2])}
	}
	h := &Histogram{InStream: args[0], InArray: args[1], NumBins: bins}
	if len(args) == 4 {
		h.OutPath = args[3]
	}
	return h, nil
}

// Name implements sb.Component.
func (h *Histogram) Name() string { return "histogram" }

// Results returns the per-timestep histograms accumulated by rank 0, in
// step order. Safe to call after Run returns on all ranks.
func (h *Histogram) Results() []StepHistogram { return h.rec.all() }

// ReservedAxes implements sb.ReduceKernel: 1-D input, nothing reserved.
func (h *Histogram) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}

// Reduce implements sb.ReduceKernel.
func (h *Histogram) Reduce(in *StepIn) (StepHistogram, error) {
	return ComputeHistogram(in.Env.Comm, in.Block.Data(), h.NumBins)
}

// Run implements sb.Component.
func (h *Histogram) Run(env *sb.Env) error {
	return h.rec.run(env, h.OutPath, histogramText(h.InArray), sb.ReduceConfig[StepHistogram]{
		Name:     "histogram",
		InStream: h.InStream, InArray: h.InArray,
		RequireDims: 1,
		OutBytes:    int64(h.NumBins * 8),
	}, h)
}

// histogramText is the recorder's file writer for histograms of the
// named quantity.
func histogramText(quantity string) func(w io.Writer, h StepHistogram) error {
	return func(w io.Writer, h StepHistogram) error { return WriteHistogramText(w, quantity, h) }
}

func (h StepHistogram) withStep(step int) StepHistogram {
	h.Step = step
	return h
}

// globalExtremes reduces every rank's extremes in one collective:
// max(x) = -min(-x), negation is exact, and Min and Max pick their
// second operand alike when a comparison fails on NaN, so the result is
// bit for bit that of a Min and a Max Allreduce.
func globalExtremes(comm *mpi.Comm, localMin, localMax float64) (lo, hi float64, err error) {
	ext, err := mpi.AllreduceFloat64s(comm, []float64{localMin, -localMax}, mpi.Min[float64])
	if err != nil {
		return 0, 0, err
	}
	return ext[0], -ext[1], nil
}

// localExtremes scans one rank's values for their least and greatest,
// or +Inf and -Inf when there are none. NaN fails both comparisons, so
// it never wins. The scan, like the binning loop, shards across
// goroutines (sb.RunShards): each shard scans (or bins into) private
// state, and the shard results merge in shard order, keeping the
// outcome identical to the serial loop.
func localExtremes(local []float64) (localMin, localMax float64) {
	shards := sb.ShardCount(len(local))
	localMin, localMax = math.Inf(1), math.Inf(-1)
	if shards == 1 {
		for _, v := range local {
			if v < localMin {
				localMin = v
			}
			if v > localMax {
				localMax = v
			}
		}
	} else {
		mins := make([]float64, shards)
		maxs := make([]float64, shards)
		sb.RunShards(len(local), shards, func(s, lo, hi int) {
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, v := range local[lo:hi] {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			mins[s], maxs[s] = mn, mx
		})
		for s := 0; s < shards; s++ {
			if mins[s] < localMin {
				localMin = mins[s]
			}
			if maxs[s] > localMax {
				localMax = maxs[s]
			}
		}
	}
	return localMin, localMax
}

// ComputeHistogram performs the distributed histogram kernel over each
// rank's local values: one Allreduce of min and negated max, local
// binning, Allreduce of the counts. Every rank returns the identical
// global result. Non-finite values (NaN, ±Inf) are left out: they set
// neither extreme and fall in no bin, so Total counts finite values.
func ComputeHistogram(comm *mpi.Comm, local []float64, bins int) (StepHistogram, error) {
	if bins <= 0 {
		return StepHistogram{}, fmt.Errorf("histogram: bins must be positive, got %d", bins)
	}
	localMin, localMax := localExtremes(local)
	if math.IsInf(localMin, -1) || math.IsInf(localMax, 1) {
		// An infinity won the scan: bin and scan a copy without the
		// rank's infinities. NaN never wins, and binning skips it.
		finite := make([]float64, 0, len(local))
		for _, v := range local {
			if !math.IsInf(v, 0) {
				finite = append(finite, v)
			}
		}
		local = finite
		localMin, localMax = localExtremes(local)
	}
	globalMin, globalMax, err := globalExtremes(comm, localMin, localMax)
	if err != nil {
		return StepHistogram{}, err
	}
	counts := make([]float64, bins)
	if globalMin <= globalMax { // false only for a globally empty array
		width := (globalMax - globalMin) / float64(bins)
		last := float64(bins)
		binRange := func(counts []float64, vals []float64) {
			for _, v := range vals {
				b := 0 // all values identical (width 0): single occupied bin
				if width != 0 {
					// One comparison in floating point, where NaN fails it,
					// keeps int() away from NaN whatever the platform.
					if x := (v - globalMin) / width; x < last {
						b = int(x)
					} else if v >= globalMin && v <= globalMax {
						b = bins - 1 // v == globalMax, or a range that overflows width
					} else {
						continue // NaN
					}
				} else if v != globalMin {
					continue // NaN
				}
				counts[b]++
			}
		}
		shards := sb.ShardCount(len(local))
		if shards == 1 {
			binRange(counts, local)
		} else {
			// Per-shard partial bins, merged in shard order: counts are
			// additions of whole numbers, so the merged result is exactly
			// the serial result.
			partials := make([][]float64, shards)
			sb.RunShards(len(local), shards, func(s, lo, hi int) {
				pc := make([]float64, bins)
				binRange(pc, local[lo:hi])
				partials[s] = pc
			})
			for _, pc := range partials {
				for i, c := range pc {
					counts[i] += c
				}
			}
		}
	}
	merged, err := mpi.AllreduceFloat64s(comm, counts, mpi.Sum[float64])
	if err != nil {
		return StepHistogram{}, err
	}
	result := StepHistogram{Counts: make([]int64, bins)}
	if globalMin <= globalMax {
		result.Min, result.Max = globalMin, globalMax
	}
	for i, c := range merged {
		result.Counts[i] = int64(c)
		result.Total += int64(c)
	}
	return result, nil
}

// WriteHistogramText renders one step's histogram in the human-readable
// form the workflow delivers as its final product.
func WriteHistogramText(w io.Writer, quantity string, h StepHistogram) error {
	if _, err := fmt.Fprintf(w, "# step %d  %s  n=%d  min=%g  max=%g\n",
		h.Step, quantity, h.Total, h.Min, h.Max); err != nil {
		return err
	}
	for i, c := range h.Counts {
		lo, hi := h.Bin(i)
		if _, err := fmt.Fprintf(w, "[%g, %g)\t%d\n", lo, hi, c); err != nil {
			return err
		}
	}
	return nil
}

func init() { Register("histogram", NewHistogram) }
