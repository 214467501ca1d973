package main

import "math"

// reference.go is the plain single-threaded computation every workload's
// outputs are checked against. It shares no code with the system under
// test: no communicator, no partitioning, no transport — one loop over
// the whole generated array per step. Its running time is printed as
// baseline_step_ms, the cost of the same analysis with no workflow at
// all.

// refHistogram bins vals into bins equal-width bins between their
// minimum and maximum; the maximum lands in the last bin.
type refHistogram struct {
	Min, Max float64
	Counts   []int64
}

func histogramOf(vals []float64, bins int) refHistogram {
	h := refHistogram{Counts: make([]int64, bins)}
	if len(vals) == 0 {
		return h
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	h.Min, h.Max = lo, hi
	width := (hi - lo) / float64(bins)
	for _, v := range vals {
		b := 0
		if width != 0 {
			b = int((v - lo) / width)
			if b >= bins {
				b = bins - 1
			}
		}
		h.Counts[b]++
	}
	return h
}

// magnitudesOf returns the Euclidean norm of the chosen columns of each
// row of a row-major rows x cols array.
func magnitudesOf(data []float64, cols int, pick []int) []float64 {
	rows := len(data) / cols
	out := make([]float64, rows)
	for r := 0; r < rows; r++ {
		row := data[r*cols : (r+1)*cols]
		s := 0.0
		for _, c := range pick {
			s += row[c] * row[c]
		}
		out[r] = math.Sqrt(s)
	}
	return out
}

// columnsOf gathers the chosen columns of a row-major array whose last
// dimension has cols entries, row by row.
func columnsOf(data []float64, cols int, pick []int) []float64 {
	out := make([]float64, 0, len(data)/cols*len(pick))
	for r := 0; r < len(data)/cols; r++ {
		for _, c := range pick {
			out = append(out, data[r*cols+c])
		}
	}
	return out
}

// equal reports whether the system's result h matches the
// reference exactly: same extremes, same count in every bin.
func (want refHistogram) equal(h Histogram) bool {
	if h.Min != want.Min || h.Max != want.Max || len(h.Counts) != len(want.Counts) {
		return false
	}
	for i, c := range want.Counts {
		if h.Counts[i] != c {
			return false
		}
	}
	return true
}
