package ndarray

// walkRank is the number of axes a walk plans in a caller's stack
// buffer; a higher-rank copy allocates its plan.
const walkRank = 8

// shortRun is the run length below which values are assigned one by one
// rather than through copy: a call into memmove costs more than a few
// moves.
const shortRun = 8

// tileEdge is the side, in runs, of the square tiles a two-axis swap is
// moved in, so the strided side of each tile stays cache-resident while
// the other side streams.
const tileEdge = 32

// walk is a strided copy between two flat buffers, planned once and then
// executed serially or sharded. It is the one data-movement core of this
// package: transposition, dimension reduction, selection, region copies
// and box extraction all describe their copy as a walk.
//
// A walk is planned axis by axis from the innermost outward (add). Axes
// of extent 1 are dropped. An axis whose stride in both buffers equals
// the inner axis's stride times its extent is folded into that inner
// axis: the two are contiguous together in both buffers. Axes that are
// contiguous in both buffers from the innermost in become the run, the
// number of values moved per step; what remains is an odometer over the
// folded outer axes.
type walk struct {
	k               int   // folded outer axes, innermost first
	count, dst, src []int // per outer axis: extent, dst stride, src stride
	dOff, sOff      int   // buffer offsets of the first value
	run             int   // contiguous values moved per step
}

// newWalk returns an empty walk from offset 0 to offset 0 for a copy of
// up to rank axes, planning in buf (3*rank ints) when it is large
// enough. The returned walk refers to buf, so a caller's stack buffer
// keeps the plan off the heap.
func newWalk(buf []int, rank int) walk {
	if 3*rank > len(buf) {
		buf = make([]int, 3*rank)
	}
	return walk{count: buf[:rank], dst: buf[rank : 2*rank], src: buf[2*rank : 3*rank], run: 1}
}

// add appends the next axis outward: c indices apart by d in the
// destination and by s in the source.
func (w *walk) add(c, d, s int) {
	switch {
	case c == 1:
	case w.k == 0 && d == w.run && s == w.run:
		w.run *= c
	case w.k > 0 && d == w.dst[w.k-1]*w.count[w.k-1] && s == w.src[w.k-1]*w.count[w.k-1]:
		w.count[w.k-1] *= c
	default:
		w.count[w.k], w.dst[w.k], w.src[w.k] = c, d, s
		w.k++
	}
}

// tiled reports whether the walk is a swap of two axes: the destination's
// outer axis is the source's inner one. Such a walk moves square tiles.
func (w *walk) tiled() bool { return w.k == 2 && w.src[1] < w.src[0] }

// exec performs the copy, sharded by run (nil = serial). Shards split the
// destination's row-major order; each unit of work (a run, a destination
// row of a two-axis swap, or for a single run its values) belongs to the
// shard holding its first value, so the result is the serial one.
func (w *walk) exec(run ShardRunner, dst, src []float64) {
	units, grain := 1, w.run
	for _, c := range w.count[:w.k] {
		units *= c
	}
	switch {
	case w.k == 0:
		units, grain = w.run, 1
	case w.tiled():
		units, grain = w.count[1], w.count[0]*w.run
	}
	if run == nil {
		w.span(dst, src, 0, units)
		return
	}
	c := w.clone()
	run(units*grain, func(lo, hi int) {
		c.span(dst, src, (lo+grain-1)/grain, (hi+grain-1)/grain)
	})
}

// clone copies the plan to the heap for sharded execution, leaving the
// serial path's stack buffer unescaped.
func (w *walk) clone() *walk {
	c := newWalk(nil, w.k)
	c.k, c.dOff, c.sOff, c.run = w.k, w.dOff, w.sOff, w.run
	copy(c.count, w.count)
	copy(c.dst, w.dst)
	copy(c.src, w.src)
	return &c
}

// span moves units [lo,hi) of the walk: values of the single run when
// there are no outer axes, destination rows for a two-axis swap (moved
// tile by tile), runs otherwise.
func (w *walk) span(dst, src []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	run := w.run
	switch {
	case w.k == 0:
		copy(dst[w.dOff+lo:w.dOff+hi], src[w.sOff+lo:w.sOff+hi])
		return
	case w.tiled():
		c0, d0, s0, d1, s1 := w.count[0], w.dst[0], w.src[0], w.dst[1], w.src[1]
		for r := lo; r < hi; r += tileEdge {
			rEnd := min(r+tileEdge, hi)
			for c := 0; c < c0; c += tileEdge {
				n := min(tileEdge, c0-c)
				for i := r; i < rEnd; i++ {
					moveRuns(dst, src, w.dOff+i*d1+c*d0, w.sOff+i*s1+c*s0, d0, s0, n, run)
				}
			}
		}
		return
	}
	var ib [walkRank]int
	idx := ib[:]
	if w.k > walkRank {
		idx = make([]int, w.k)
	}
	// Seed the odometer from lo; d and s track the start of the current
	// innermost row.
	d, s := w.dOff, w.sOff
	for j, u := 1, lo/w.count[0]; j < w.k; j++ {
		idx[j] = u % w.count[j]
		u /= w.count[j]
		d += idx[j] * w.dst[j]
		s += idx[j] * w.src[j]
	}
	c0, d0, s0 := w.count[0], w.dst[0], w.src[0]
	i0 := lo % c0
	for u := lo; ; {
		n := min(c0-i0, hi-u)
		moveRuns(dst, src, d+i0*d0, s+i0*s0, d0, s0, n, run)
		if u += n; u >= hi {
			return
		}
		i0 = 0
		for j := 1; j < w.k; j++ {
			idx[j]++
			d += w.dst[j]
			s += w.src[j]
			if idx[j] < w.count[j] {
				break
			}
			d -= idx[j] * w.dst[j]
			s -= idx[j] * w.src[j]
			idx[j] = 0
		}
	}
}

// moveRuns moves n runs of run values, the i-th from src[s+i*sStep] to
// dst[d+i*dStep]. Single values skip the slicing of the short-run loop:
// a two-axis swap of scalars moves 2.5× faster that way.
func moveRuns(dst, src []float64, d, s, dStep, sStep, n, run int) {
	switch {
	case run == 1:
		for ; n > 0; n-- {
			dst[d] = src[s]
			d += dStep
			s += sStep
		}
	case run < shortRun:
		for ; n > 0; n-- {
			out, in := dst[d:d+run], src[s:s+run]
			for j := range out {
				out[j] = in[j]
			}
			d += dStep
			s += sStep
		}
	default:
		for ; n > 0; n-- {
			copy(dst[d:d+run], src[s:s+run])
			d += dStep
			s += sStep
		}
	}
}
