package ndarray

import (
	"testing"
)

func benchArray3D(b *testing.B, x, y, z int) *Array {
	b.Helper()
	a := New(Dim{"x", x}, Dim{"y", y}, Dim{"z", z})
	for i := range a.Data() {
		a.Data()[i] = float64(i)
	}
	return a
}

func BenchmarkTranspose(b *testing.B) {
	b.ReportAllocs()
	a := benchArray3D(b, 64, 64, 64)
	b.SetBytes(int64(a.Size() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Transpose(2, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDimReduceAdjacent(b *testing.B) {
	b.ReportAllocs()
	// Remove an axis that already follows the grow axis: pure reshape path.
	a := benchArray3D(b, 64, 64, 64)
	b.SetBytes(int64(a.Size() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.DimReduce(1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDimReduceTransposing(b *testing.B) {
	b.ReportAllocs()
	// Remove a leading axis into a trailing one: requires re-arrangement.
	a := benchArray3D(b, 64, 64, 64)
	b.SetBytes(int64(a.Size() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.DimReduce(0, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCopyBox(b *testing.B) {
	b.ReportAllocs()
	a := benchArray3D(b, 64, 64, 64)
	box := Box{Offsets: []int{8, 8, 8}, Counts: []int{48, 48, 48}}
	b.SetBytes(int64(box.Volume() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.CopyBox(box); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCopyRegion(b *testing.B) {
	b.ReportAllocs()
	src := benchArray3D(b, 64, 64, 64)
	dst := New(Dim{"x", 64}, Dim{"y", 64}, Dim{"z", 64})
	counts := []int{48, 48, 48}
	b.SetBytes(int64(Volume(counts) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CopyRegion(dst, []int{0, 0, 0}, src, []int{16, 16, 16}, counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectIndices(b *testing.B) {
	b.ReportAllocs()
	a := New(Dim{"particles", 100000}, Dim{"props", 5})
	for i := range a.Data() {
		a.Data()[i] = float64(i)
	}
	b.SetBytes(int64(a.Size() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SelectIndices(1, []int{2, 3, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionAlong(b *testing.B) {
	b.ReportAllocs()
	shape := []int{1 << 20, 5}
	for i := 0; i < b.N; i++ {
		PartitionAlong(shape, 0, 64, i%64)
	}
}

// BenchmarkWorkloadShapes times the data-movement kernels at the shapes
// the benchmark workloads move each step, serially, in bytes moved.
func BenchmarkWorkloadShapes(b *testing.B) {
	ramp := func(dims ...Dim) *Array {
		a := New(dims...)
		for i := range a.Data() {
			a.Data()[i] = float64(i)
		}
		return a
	}
	gtcp := ramp(Dim{"slices", 32}, Dim{"points", 4096}, Dim{"q", 7})
	picked := ramp(Dim{"slices", 32}, Dim{"points", 4096}, Dim{"q", 3})
	flat := ramp(Dim{"slices", 32}, Dim{"points", 12288})
	atoms := ramp(Dim{"atoms", 262144}, Dim{"xyz", 3})
	half := New(Dim{"atoms", 131072}, Dim{"xyz", 3})
	lammps := ramp(Dim{"particles", 32768}, Dim{"props", 5})
	out := make([]float64, picked.Size())
	lmpOut := make([]float64, 32768*3)
	for _, c := range []struct {
		name  string
		bytes int
		fn    func() error
	}{
		{"gtcp_select", picked.Size(), func() error {
			_, err := gtcp.SelectIndicesInto(out, 2, []int{3, 4, 5})
			return err
		}},
		{"gtcp_dimreduce1", picked.Size(), func() error {
			_, err := picked.DimReduceWith(nil, out, 2, 1)
			return err
		}},
		{"gtcp_dimreduce2", flat.Size(), func() error {
			_, err := flat.DimReduceWith(nil, out, 0, 1)
			return err
		}},
		{"atoms_assemble", half.Size(), func() error {
			return CopyRegion(half, []int{0, 0}, atoms, []int{65536, 0}, []int{131072, 3})
		}},
		{"lammps_select", len(lmpOut), func() error {
			_, err := lammps.SelectIndicesInto(lmpOut, 1, []int{2, 3, 4})
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(c.bytes * 8))
			for i := 0; i < b.N; i++ {
				if err := c.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
