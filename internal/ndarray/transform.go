package ndarray

import (
	"fmt"
)

// ShardRunner runs fn over contiguous sub-ranges covering [0,n); the
// sub-ranges may execute concurrently. It is how this package's
// data-movement kernels shard across a worker pool without importing
// one: callers pass sb.ParallelFor (or nil for serial execution).
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

// newInto is New backed by dst when dst is non-nil, so a caller can
// supply reused output storage; dst must then hold exactly the volume of
// dims. Every element is overwritten by the caller.
func newInto(dst []float64, dims []Dim) (*Array, error) {
	if dst == nil {
		return New(dims...), nil
	}
	return FromData(dst, dims...)
}

// TransposeWith is Transpose with the output walk sharded by run (nil =
// serial) and written into dst (nil = fresh storage; otherwise exactly
// the array's size). Each shard walks its own [lo,hi) slice of the
// output's row-major order, seeding the source offset from lo, so the
// result is identical to the serial walk.
func (a *Array) TransposeWith(run ShardRunner, dst []float64, perm ...int) (*Array, error) {
	n := len(a.dims)
	if len(perm) != n {
		return nil, fmt.Errorf("ndarray: transpose permutation has %d entries for %d-d array", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("ndarray: invalid transpose permutation %v", perm)
		}
		seen[p] = true
	}
	dims := make([]Dim, n)
	for i, p := range perm {
		dims[i] = a.dims[p]
	}
	out, err := newInto(dst, dims)
	if err != nil {
		return nil, err
	}
	if len(a.data) == 0 {
		return out, nil
	}
	srcStrides := a.Strides()
	outShape := out.Shape()
	outStrides := StridesOf(outShape)
	// Walk a range of the output in row-major order, computing the
	// matching source linear offset incrementally.
	fill := func(lo, hi int) {
		idx := make([]int, n)
		srcPos := 0
		for i := 0; i < n; i++ {
			idx[i] = (lo / outStrides[i]) % outShape[i]
			srcPos += idx[i] * srcStrides[perm[i]]
		}
		for dst := lo; dst < hi; dst++ {
			out.data[dst] = a.data[srcPos]
			for i := n - 1; i >= 0; i-- {
				idx[i]++
				srcPos += srcStrides[perm[i]]
				if idx[i] < outShape[i] {
					break
				}
				srcPos -= idx[i] * srcStrides[perm[i]]
				idx[i] = 0
			}
		}
	}
	if run == nil {
		fill(0, len(out.data))
	} else {
		run(len(out.data), fill)
	}
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
// otherwise exactly the array's size).
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
// storage; otherwise exactly the result's size).
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
	srcAxis := a.dims[axis].Size
	for o := 0; o < outer; o++ {
		srcBase := o * srcAxis * inner
		dstBase := o * len(indices) * inner
		for k, ix := range indices {
			copy(out.data[dstBase+k*inner:dstBase+(k+1)*inner],
				a.data[srcBase+ix*inner:srcBase+(ix+1)*inner])
		}
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
