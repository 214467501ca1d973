package components

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/sb"
)

func TestComputeHistogramSingleRank(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		h, err := ComputeHistogram(c, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5)
		if err != nil {
			return err
		}
		if h.Min != 0 || h.Max != 10 || h.Total != 11 {
			t.Errorf("h = %+v", h)
		}
		// Bins of width 2: [0,2)=2 [2,4)=2 [4,6)=2 [6,8)=2 [8,10]=3.
		want := []int64{2, 2, 2, 2, 3}
		for i, c := range h.Counts {
			if c != want[i] {
				t.Errorf("counts = %v, want %v", h.Counts, want)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeHistogramDistributedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	values := make([]float64, 1000)
	for i := range values {
		values[i] = rng.NormFloat64() * 10
	}
	const bins = 16
	serial := serialHistogram(values, bins)

	for _, ranks := range []int{1, 2, 3, 7} {
		var got StepHistogram
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			lo := c.Rank() * len(values) / ranks
			hi := (c.Rank() + 1) * len(values) / ranks
			h, err := ComputeHistogram(c, values[lo:hi], bins)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got = h
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Min != serial.Min || got.Max != serial.Max || got.Total != serial.Total {
			t.Fatalf("ranks=%d: got %+v, want %+v", ranks, got, serial)
		}
		for i := range got.Counts {
			if got.Counts[i] != serial.Counts[i] {
				t.Fatalf("ranks=%d: counts %v, want %v", ranks, got.Counts, serial.Counts)
			}
		}
	}
}

// serialHistogram is an independent single-threaded reference.
func serialHistogram(values []float64, bins int) StepHistogram {
	h := StepHistogram{Counts: make([]int64, bins)}
	if len(values) == 0 {
		return h
	}
	h.Min, h.Max = values[0], values[0]
	for _, v := range values {
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	width := (h.Max - h.Min) / float64(bins)
	for _, v := range values {
		b := 0
		if width > 0 {
			b = int((v - h.Min) / width)
			if b >= bins {
				b = bins - 1
			}
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

func TestComputeHistogramAllIdentical(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		h, err := ComputeHistogram(c, []float64{3.5, 3.5, 3.5}, 4)
		if err != nil {
			return err
		}
		if h.Total != 6 || h.Counts[0] != 6 {
			t.Errorf("identical values: %+v", h)
		}
		if h.Min != 3.5 || h.Max != 3.5 {
			t.Errorf("extremes: %+v", h)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeHistogramEmptyEverywhere(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		h, err := ComputeHistogram(c, nil, 4)
		if err != nil {
			return err
		}
		if h.Total != 0 || h.Min != 0 || h.Max != 0 {
			t.Errorf("empty histogram: %+v", h)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeHistogramEmptyOnSomeRanks(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		var local []float64
		if c.Rank() == 1 {
			local = []float64{1, 2, 3}
		}
		h, err := ComputeHistogram(c, local, 2)
		if err != nil {
			return err
		}
		if h.Total != 3 || h.Min != 1 || h.Max != 3 {
			t.Errorf("skewed histogram: %+v", h)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeHistogramBadBins(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := ComputeHistogram(c, []float64{1}, 0); err == nil {
			t.Error("bins=0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: counts always sum to the global value count, min/max bracket
// every value, and every rank sees the same result.
func TestQuickComputeHistogram(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := 1 + rng.Intn(5)
		bins := 1 + rng.Intn(20)
		locals := make([][]float64, ranks)
		total := 0
		for r := range locals {
			n := rng.Intn(40)
			locals[r] = make([]float64, n)
			for i := range locals[r] {
				locals[r][i] = rng.NormFloat64() * 100
			}
			total += n
		}
		ok := true
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			h, err := ComputeHistogram(c, locals[c.Rank()], bins)
			if err != nil {
				return err
			}
			if h.Total != int64(total) {
				ok = false
			}
			var sum int64
			for _, cnt := range h.Counts {
				sum += cnt
			}
			if sum != h.Total {
				ok = false
			}
			for _, v := range locals[c.Rank()] {
				if v < h.Min || v > h.Max {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStepHistogramBin(t *testing.T) {
	h := StepHistogram{Min: 0, Max: 10, Counts: make([]int64, 5)}
	lo, hi := h.Bin(0)
	if lo != 0 || hi != 2 {
		t.Fatalf("bin 0 = [%v,%v)", lo, hi)
	}
	lo, hi = h.Bin(4)
	if lo != 8 || hi != 10 {
		t.Fatalf("bin 4 = [%v,%v)", lo, hi)
	}
}

func TestWriteHistogramText(t *testing.T) {
	var sb strings.Builder
	h := StepHistogram{Step: 3, Min: 0, Max: 4, Counts: []int64{1, 2}, Total: 3}
	if err := WriteHistogramText(&sb, "velocities", h); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"step 3", "velocities", "n=3", "[0, 2)\t1", "[2, 4)\t2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
}

func TestHistogramBinBoundary(t *testing.T) {
	// The max value must land in the last bin, not overflow.
	err := mpi.Run(1, func(c *mpi.Comm) error {
		h, err := ComputeHistogram(c, []float64{0, 10}, 3)
		if err != nil {
			return err
		}
		if h.Counts[2] != 1 {
			t.Errorf("max value not in last bin: %v", h.Counts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Values infinitesimally below max stay in their bin.
	err = mpi.Run(1, func(c *mpi.Comm) error {
		h, err := ComputeHistogram(c, []float64{0, math.Nextafter(10, 0), 10}, 2)
		if err != nil {
			return err
		}
		if h.Counts[0] != 1 || h.Counts[1] != 2 {
			t.Errorf("boundary binning: %v", h.Counts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The folded extremes collective must agree bit for bit with the two
// Allreduce calls it replaced — a Min over the local minima and a Max
// over the local maxima — for empty ranks (+Inf/-Inf), infinities,
// signed zeros and NaN in any rank position.
func TestGlobalExtremesMatchTwoCalls(t *testing.T) {
	pool := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, 1.5, -2}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		size := 1 + trial%4
		mins, maxs := make([]float64, size), make([]float64, size)
		for r := range mins {
			if rng.Intn(4) == 0 { // an empty rank's scan result
				mins[r], maxs[r] = math.Inf(1), math.Inf(-1)
				continue
			}
			mins[r], maxs[r] = pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		}
		err := mpi.Run(size, func(c *mpi.Comm) error {
			lo, hi, err := globalExtremes(c, mins[c.Rank()], maxs[c.Rank()])
			if err != nil {
				return err
			}
			wantLo, err := mpi.Allreduce(c, mins[c.Rank()], mpi.Min[float64])
			if err != nil {
				return err
			}
			wantHi, err := mpi.Allreduce(c, maxs[c.Rank()], mpi.Max[float64])
			if err != nil {
				return err
			}
			if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
				t.Errorf("ranks %v/%v: folded extremes (%v, %v), two calls (%v, %v)", mins, maxs, lo, hi, wantLo, wantHi)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Non-finite values are left out of the extremes and of every bin, on
// the serial and the sharded path and on one rank or two alike: the
// result is the histogram of the finite values alone.
func TestComputeHistogramNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	inputs := [][]float64{{1, inf}, {-inf, 2}, {-inf, inf}, {nan, 1, 2}, {inf}}
	const bins = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		for _, in := range inputs {
			values := in
			if workers > 1 { // enough finite values around them for every rank to shard
				values = make([]float64, 6*4096)
				for i := range values {
					values[i] = rng.NormFloat64()
				}
				for j, v := range in {
					values[(2*j+1)*len(values)/(2*len(in))] = v
				}
			}
			var finite []float64
			for _, v := range values {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					finite = append(finite, v)
				}
			}
			want := serialHistogram(finite, bins)
			for _, ranks := range []int{1, 2} {
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					local := values[c.Rank()*len(values)/ranks : (c.Rank()+1)*len(values)/ranks]
					if workers > 1 && sb.ShardCount(len(local)) < 2 {
						t.Errorf("%d values do not shard", len(local))
					}
					got, err := ComputeHistogram(c, local, bins)
					if err != nil {
						return err
					}
					if got.Min != want.Min || got.Max != want.Max || got.Total != want.Total {
						t.Errorf("workers=%d ranks=%d input %v: got %+v, want %+v", workers, ranks, in, got, want)
					}
					for i := range got.Counts {
						if got.Counts[i] != want.Counts[i] {
							t.Errorf("workers=%d ranks=%d input %v: counts %v, want %v", workers, ranks, in, got.Counts, want.Counts)
							break
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d ranks=%d input %v: %v", workers, ranks, in, err)
				}
			}
		}
	}
}
