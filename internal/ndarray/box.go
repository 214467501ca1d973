package ndarray

import (
	"fmt"
)

// Box is an axis-aligned bounding box inside an N-dimensional index space:
// for each dimension it holds a starting offset and an extent. Boxes are
// how ADIOS read selections are expressed (§IV of the paper): each reading
// rank declares the sub-block it wants and the transport assembles it from
// however many writers hold pieces of it.
type Box struct {
	Offsets []int
	Counts  []int
}

// NewBox builds a box from offset/count pairs. Offsets and counts must
// have equal length.
func NewBox(offsets, counts []int) (Box, error) {
	if len(offsets) != len(counts) {
		return Box{}, fmt.Errorf("ndarray: box offsets (%d) and counts (%d) differ in rank", len(offsets), len(counts))
	}
	b := Box{Offsets: append([]int(nil), offsets...), Counts: append([]int(nil), counts...)}
	return b, nil
}

// WholeBox returns the box covering an entire shape.
func WholeBox(shape []int) Box {
	return Box{Offsets: make([]int, len(shape)), Counts: append([]int(nil), shape...)}
}

// NDim reports the dimensionality of the box.
func (b Box) NDim() int { return len(b.Offsets) }

// Volume reports the number of elements the box covers.
func (b Box) Volume() int { return Volume(b.Counts) }

// Empty reports whether the box covers no elements.
func (b Box) Empty() bool {
	for _, c := range b.Counts {
		if c <= 0 {
			return true
		}
	}
	return len(b.Counts) >= 0 && b.Volume() == 0
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	return Box{
		Offsets: append([]int(nil), b.Offsets...),
		Counts:  append([]int(nil), b.Counts...),
	}
}

// ValidIn reports an error unless the box lies entirely within shape.
func (b Box) ValidIn(shape []int) error {
	return b.check(len(shape), func(i int) int { return shape[i] })
}

// validIn is ValidIn against an array's dimensions.
func (b Box) validIn(dims []Dim) error {
	return b.check(len(dims), func(i int) int { return dims[i].Size })
}

func (b Box) check(rank int, extent func(int) int) error {
	if len(b.Offsets) != rank {
		return fmt.Errorf("ndarray: box rank %d does not match shape rank %d", len(b.Offsets), rank)
	}
	for i := 0; i < rank; i++ {
		if b.Offsets[i] < 0 || b.Counts[i] < 0 {
			return fmt.Errorf("ndarray: box has negative offset/count in dimension %d", i)
		}
		if b.Offsets[i]+b.Counts[i] > extent(i) {
			return fmt.Errorf("ndarray: box [%d,%d) exceeds extent %d in dimension %d",
				b.Offsets[i], b.Offsets[i]+b.Counts[i], extent(i), i)
		}
	}
	return nil
}

// Contains reports whether the multi-dimensional point lies inside the box.
// Equal reports whether two boxes describe the same region.
func (b Box) Equal(o Box) bool {
	if b.NDim() != o.NDim() {
		return false
	}
	for i := range b.Offsets {
		if b.Offsets[i] != o.Offsets[i] || b.Counts[i] != o.Counts[i] {
			return false
		}
	}
	return true
}

func (b Box) Contains(idx []int) bool {
	if len(idx) != len(b.Offsets) {
		return false
	}
	for i, x := range idx {
		if x < b.Offsets[i] || x >= b.Offsets[i]+b.Counts[i] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of two boxes and whether it is non-empty.
func (b Box) Intersect(o Box) (Box, bool) {
	if len(b.Offsets) != len(o.Offsets) {
		return Box{}, false
	}
	out := Box{Offsets: make([]int, len(b.Offsets)), Counts: make([]int, len(b.Offsets))}
	for i := range b.Offsets {
		lo := max(b.Offsets[i], o.Offsets[i])
		hi := min(b.Offsets[i]+b.Counts[i], o.Offsets[i]+o.Counts[i])
		if hi <= lo {
			return Box{}, false
		}
		out.Offsets[i] = lo
		out.Counts[i] = hi - lo
	}
	return out, true
}

// String renders the box as "offset+count" per dimension, e.g.
// "[0+128 2+3]".
func (b Box) String() string {
	s := "["
	for i := range b.Offsets {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d+%d", b.Offsets[i], b.Counts[i])
	}
	return s + "]"
}

// CopyBox extracts the sub-array covered by box from a. The result is a
// fresh array whose dimensions keep a's labels with the box's counts.
func (a *Array) CopyBox(b Box) (*Array, error) {
	if err := b.validIn(a.dims); err != nil {
		return nil, err
	}
	dims := make([]Dim, len(a.dims))
	for i, d := range a.dims {
		dims[i] = Dim{Name: d.Name, Size: b.Counts[i]}
	}
	out := New(dims...)
	if err := CopyRegion(out, make([]int, len(dims)), a, b.Offsets, b.Counts); err != nil {
		return nil, err
	}
	return out, nil
}

// PasteBox writes src (whose shape must equal the box counts) into the
// region of a covered by the box.
func (a *Array) PasteBox(b Box, src *Array) error {
	if err := b.validIn(a.dims); err != nil {
		return err
	}
	for i, c := range b.Counts {
		if src.dims[i].Size != c {
			return fmt.Errorf("ndarray: paste source extent %d does not match box count %d in dimension %d",
				src.dims[i].Size, c, i)
		}
	}
	return CopyRegion(a, b.Offsets, src, make([]int, len(b.Counts)), b.Counts)
}

// Partition1D splits the half-open range [0,total) into nparts contiguous
// chunks whose sizes differ by at most one, and returns the offset and
// count of chunk part. Parts beyond total receive empty chunks. It panics
// if nparts <= 0 or part is out of range — a partitioning bug is a
// programming error, not an environmental condition.
func Partition1D(total, nparts, part int) (offset, count int) {
	if nparts <= 0 {
		panic(fmt.Sprintf("ndarray: Partition1D with nparts=%d", nparts))
	}
	if part < 0 || part >= nparts {
		panic(fmt.Sprintf("ndarray: Partition1D part %d out of range [0,%d)", part, nparts))
	}
	base := total / nparts
	rem := total % nparts
	if part < rem {
		return part * (base + 1), base + 1
	}
	return rem*(base+1) + (part-rem)*base, base
}

// PartitionAlong evenly partitions a global shape along the given axis and
// returns the bounding box owned by rank `part` of `nparts`. All other
// axes are covered fully. This is the automatic decomposition every
// SmartBlock component applies to the dataset it receives (§III-B).
func PartitionAlong(shape []int, axis, nparts, part int) Box {
	if axis < 0 || axis >= len(shape) {
		panic(fmt.Sprintf("ndarray: PartitionAlong axis %d out of range for rank-%d shape", axis, len(shape)))
	}
	b := WholeBox(shape)
	off, cnt := Partition1D(shape[axis], nparts, part)
	b.Offsets[axis] = off
	b.Counts[axis] = cnt
	return b
}
