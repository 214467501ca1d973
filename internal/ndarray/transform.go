package ndarray

import (
	"fmt"
)

// ShardRunner runs fn over contiguous sub-ranges covering [0,n); the
// sub-ranges may execute concurrently. It is how this package's
// data-movement kernels shard across goroutines without importing the
// scheduler: callers pass sb.ParallelFor (or nil for serial execution).
type ShardRunner func(n int, fn func(lo, hi int))

// Transpose returns a new array whose dimension i is the input's dimension
// perm[i]. perm must be a permutation of [0,NDim). Labels travel with
// their dimensions. The data is physically re-ordered into row-major
// layout for the new dimension order — exactly the re-arrangement the
// paper observes is required because "programming languages understand
// multi-dimensional data as being in a specific order in memory" (§III-A4).
func (a *Array) Transpose(perm ...int) (*Array, error) {
	return a.TransposeWith(nil, nil, perm...)
}

// newInto builds an array of dims backed by dst when dst is non-nil, so
// a caller can supply reused output storage; dst must then hold exactly
// the volume of dims. The array takes ownership of dims. Every element
// is overwritten by the caller.
func newInto(dst []float64, dims []Dim) (*Array, error) {
	n := 1
	for _, d := range dims {
		n *= d.Size
	}
	if dst == nil {
		dst = make([]float64, n)
	} else if len(dst) != n {
		return nil, fmt.Errorf("ndarray: data length %d does not match shape volume %d", len(dst), n)
	}
	return &Array{dims: dims, data: dst}, nil
}

// TransposeWith is Transpose with the copy sharded by run (nil =
// serial) and written into dst (nil = fresh storage; otherwise exactly
// the array's size). Source axes that stay adjacent and in order under
// perm move together: an order-preserving perm is one copy, trailing
// axes left in place move as runs, and a swap of two (folded) axes moves
// in cache-sized tiles. Shards split the output's row-major order, so
// the result is identical to the serial walk.
func (a *Array) TransposeWith(run ShardRunner, dst []float64, perm ...int) (*Array, error) {
	n := len(a.dims)
	if len(perm) != n {
		return nil, fmt.Errorf("ndarray: transpose permutation has %d entries for %d-d array", len(perm), n)
	}
	var buf [4 * walkRank]int
	// srcStrides first marks the axes perm names, then holds the
	// source's row-major strides.
	srcStrides := buf[3*walkRank:]
	if n > walkRank {
		srcStrides = make([]int, n)
	}
	for _, p := range perm {
		if p < 0 || p >= n || srcStrides[p] != 0 {
			return nil, fmt.Errorf("ndarray: invalid transpose permutation %v", perm)
		}
		srcStrides[p] = 1
	}
	stride := 1
	for i := n - 1; i >= 0; i-- {
		srcStrides[i] = stride
		stride *= a.dims[i].Size
	}
	dims := make([]Dim, n)
	for i, p := range perm {
		dims[i] = a.dims[p]
	}
	out, err := newInto(dst, dims)
	if err != nil {
		return nil, err
	}
	if len(out.data) == 0 {
		return out, nil
	}
	w := newWalk(buf[:3*walkRank], n)
	stride = 1
	for i := n - 1; i >= 0; i-- {
		w.add(dims[i].Size, stride, srcStrides[perm[i]])
		stride *= dims[i].Size
	}
	w.exec(run, out.data, a.data)
	return out, nil
}

// DimReduce removes dimension `remove` by absorbing it into dimension
// `grow`, preserving the total element count (§III-F of the paper). The
// removed axis is logically relocated to sit immediately after the grow
// axis, then the two are merged: the merged coordinate is
// oldGrow*removeSize + oldRemove. The merged dimension keeps the grow
// axis's label. When the removed axis already immediately follows the
// grow axis no data movement occurs beyond one copy.
func (a *Array) DimReduce(remove, grow int) (*Array, error) {
	return a.DimReduceWith(nil, nil, remove, grow)
}

// DimReduceWith is DimReduce with the underlying transpose sharded by
// run (nil = serial) and written into dst (nil = fresh storage;
// otherwise exactly the array's size). When the removed axis already
// follows the grow axis the permutation keeps every axis in order, so
// the transpose folds to that one (sharded) copy; otherwise it moves
// the runs the permutation leaves contiguous, as TransposeWith does.
func (a *Array) DimReduceWith(run ShardRunner, dst []float64, remove, grow int) (*Array, error) {
	n := len(a.dims)
	if n < 2 {
		return nil, fmt.Errorf("ndarray: dim-reduce requires at least 2 dimensions, have %d", n)
	}
	if remove < 0 || remove >= n {
		return nil, fmt.Errorf("ndarray: dim-reduce remove index %d out of range [0,%d)", remove, n)
	}
	if grow < 0 || grow >= n {
		return nil, fmt.Errorf("ndarray: dim-reduce grow index %d out of range [0,%d)", grow, n)
	}
	if remove == grow {
		return nil, fmt.Errorf("ndarray: dim-reduce remove and grow must differ (both %d)", remove)
	}
	// Build the permutation that moves `remove` to just after `grow`,
	// keeping all other axes in order.
	perm := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i == remove {
			continue
		}
		perm = append(perm, i)
		if i == grow {
			perm = append(perm, remove)
		}
	}
	t, err := a.TransposeWith(run, dst, perm...)
	if err != nil {
		return nil, err
	}
	// Merge the grow axis with the removed axis that now follows it.
	growPos := 0
	for i, p := range perm {
		if p == grow {
			growPos = i
			break
		}
	}
	dims := make([]Dim, 0, n-1)
	for i, d := range t.dims {
		if i == growPos {
			dims = append(dims, Dim{Name: d.Name, Size: d.Size * a.dims[remove].Size})
			continue
		}
		if i == growPos+1 {
			continue // the relocated removed axis
		}
		dims = append(dims, d)
	}
	return t.Reshape(dims...)
}

// SelectIndices extracts the given indices (in the given order, repeats
// allowed) along one axis, producing an array whose extent along that axis
// is len(indices). This is the kernel of the Select component.
func (a *Array) SelectIndices(axis int, indices []int) (*Array, error) {
	return a.SelectIndicesInto(nil, axis, indices)
}

// SelectIndicesInto is SelectIndices writing into dst (nil = fresh
// storage; otherwise exactly the result's size). Each group of
// consecutive ascending indices is one strided copy, moving a run of
// values per outer index.
func (a *Array) SelectIndicesInto(dst []float64, axis int, indices []int) (*Array, error) {
	n := len(a.dims)
	if axis < 0 || axis >= n {
		return nil, fmt.Errorf("ndarray: select axis %d out of range [0,%d)", axis, n)
	}
	for _, ix := range indices {
		if ix < 0 || ix >= a.dims[axis].Size {
			return nil, fmt.Errorf("ndarray: select index %d out of range [0,%d) along axis %d",
				ix, a.dims[axis].Size, axis)
		}
	}
	dims := cloneDims(a.dims)
	dims[axis].Size = len(indices)
	out, err := newInto(dst, dims)
	if err != nil {
		return nil, err
	}
	if out.Size() == 0 {
		return out, nil
	}
	// outer = product of dims before axis, inner = product after.
	outer, inner := 1, 1
	for i := 0; i < axis; i++ {
		outer *= a.dims[i].Size
	}
	for i := axis + 1; i < n; i++ {
		inner *= a.dims[i].Size
	}
	srcAxis, m := a.dims[axis].Size, len(indices)
	var buf [6]int
	for k := 0; k < m; {
		r := 1
		for k+r < m && indices[k+r] == indices[k]+r {
			r++
		}
		w := newWalk(buf[:], 2)
		w.dOff, w.sOff = k*inner, indices[k]*inner
		w.add(r*inner, 1, 1)
		w.add(outer, m*inner, srcAxis*inner)
		w.exec(nil, out.data, a.data)
		k += r
	}
	return out, nil
}

// Concat joins arrays along the given axis. All inputs must agree on
// every other dimension (sizes and names); the result keeps the first
// input's labels.
func Concat(axis int, arrays ...*Array) (*Array, error) {
	if len(arrays) == 0 {
		return nil, fmt.Errorf("ndarray: concat of zero arrays")
	}
	first := arrays[0]
	n := first.NDim()
	if axis < 0 || axis >= n {
		return nil, fmt.Errorf("ndarray: concat axis %d out of range [0,%d)", axis, n)
	}
	total := 0
	for _, a := range arrays {
		if a.NDim() != n {
			return nil, fmt.Errorf("ndarray: concat rank mismatch: %d vs %d", a.NDim(), n)
		}
		for i := 0; i < n; i++ {
			if i != axis && a.dims[i].Size != first.dims[i].Size {
				return nil, fmt.Errorf("ndarray: concat extent mismatch in dimension %d: %d vs %d",
					i, a.dims[i].Size, first.dims[i].Size)
			}
		}
		total += a.dims[axis].Size
	}
	dims := cloneDims(first.dims)
	dims[axis].Size = total
	out := New(dims...)
	off := 0
	for _, a := range arrays {
		box := WholeBox(out.Shape())
		box.Offsets[axis] = off
		box.Counts[axis] = a.dims[axis].Size
		if err := out.PasteBox(box, a); err != nil {
			return nil, err
		}
		off += a.dims[axis].Size
	}
	return out, nil
}
