package ndarray

import (
	"testing"
)

func TestNewBoxRankMismatch(t *testing.T) {
	if _, err := NewBox([]int{0}, []int{1, 2}); err == nil {
		t.Fatal("NewBox accepted mismatched ranks")
	}
}

func TestWholeBox(t *testing.T) {
	b := WholeBox([]int{3, 4})
	if b.Volume() != 12 || b.Offsets[0] != 0 || b.Counts[1] != 4 {
		t.Fatalf("WholeBox = %v", b)
	}
}

func TestBoxValidIn(t *testing.T) {
	shape := []int{4, 6}
	cases := []struct {
		off, cnt []int
		ok       bool
	}{
		{[]int{0, 0}, []int{4, 6}, true},
		{[]int{2, 3}, []int{2, 3}, true},
		{[]int{3, 0}, []int{2, 1}, false}, // overruns dim 0
		{[]int{-1, 0}, []int{1, 1}, false},
		{[]int{0, 0}, []int{1, -1}, false},
		{[]int{0}, []int{1}, false}, // rank mismatch
	}
	for _, c := range cases {
		b := Box{Offsets: c.off, Counts: c.cnt}
		err := b.ValidIn(shape)
		if (err == nil) != c.ok {
			t.Errorf("ValidIn(%v+%v) err=%v, want ok=%v", c.off, c.cnt, err, c.ok)
		}
	}
}

func TestBoxIntersect(t *testing.T) {
	a := Box{Offsets: []int{0, 0}, Counts: []int{4, 4}}
	b := Box{Offsets: []int{2, 3}, Counts: []int{5, 5}}
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	if got.Offsets[0] != 2 || got.Counts[0] != 2 || got.Offsets[1] != 3 || got.Counts[1] != 1 {
		t.Fatalf("Intersect = %v", got)
	}
	// Disjoint boxes.
	c := Box{Offsets: []int{10, 10}, Counts: []int{1, 1}}
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint boxes reported overlap")
	}
	// Touching (zero-width) boundary is not an overlap.
	d := Box{Offsets: []int{4, 0}, Counts: []int{1, 1}}
	if _, ok := a.Intersect(d); ok {
		t.Fatal("touching boxes reported overlap")
	}
}

func TestBoxContains(t *testing.T) {
	b := Box{Offsets: []int{1, 1}, Counts: []int{2, 2}}
	if !b.Contains([]int{1, 2}) {
		t.Fatal("Contains(1,2) = false")
	}
	if b.Contains([]int{3, 1}) {
		t.Fatal("Contains(3,1) = true")
	}
	if b.Contains([]int{1}) {
		t.Fatal("Contains with wrong rank = true")
	}
}

func TestCopyBox2D(t *testing.T) {
	a := MustFromData(seq(12), Dim{"r", 3}, Dim{"c", 4})
	b := Box{Offsets: []int{1, 1}, Counts: []int{2, 2}}
	sub, err := a.CopyBox(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 9, 10}
	for i, v := range sub.Data() {
		if v != want[i] {
			t.Fatalf("CopyBox data = %v, want %v", sub.Data(), want)
		}
	}
	if sub.Dim(0).Name != "r" || sub.Dim(1).Size != 2 {
		t.Fatalf("CopyBox dims = %v", sub.Dims())
	}
}

func TestCopyBox3DInterior(t *testing.T) {
	a := MustFromData(seq(24), Dim{"a", 2}, Dim{"b", 3}, Dim{"c", 4})
	b := Box{Offsets: []int{0, 1, 2}, Counts: []int{2, 2, 2}}
	sub, err := a.CopyBox(b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify element-by-element against At.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				want := a.At(i+0, j+1, k+2)
				if got := sub.At(i, j, k); got != want {
					t.Fatalf("sub(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestPasteBoxRoundTrip(t *testing.T) {
	a := MustFromData(seq(12), Dim{"r", 3}, Dim{"c", 4})
	b := Box{Offsets: []int{1, 0}, Counts: []int{2, 3}}
	sub, err := a.CopyBox(b)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(Dim{"r", 3}, Dim{"c", 4}).Fill(-1)
	if err := dst.PasteBox(b, sub); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			inside := b.Contains([]int{i, j})
			got := dst.At(i, j)
			if inside && got != a.At(i, j) {
				t.Fatalf("pasted (%d,%d) = %v, want %v", i, j, got, a.At(i, j))
			}
			if !inside && got != -1 {
				t.Fatalf("outside (%d,%d) overwritten to %v", i, j, got)
			}
		}
	}
}

func TestPasteBoxShapeMismatch(t *testing.T) {
	dst := New(Dim{"x", 4})
	src := New(Dim{"x", 3})
	b := Box{Offsets: []int{0}, Counts: []int{2}}
	if err := dst.PasteBox(b, src); err == nil {
		t.Fatal("PasteBox accepted mismatched source shape")
	}
}

func TestCopyBoxInvalid(t *testing.T) {
	a := New(Dim{"x", 4})
	if _, err := a.CopyBox(Box{Offsets: []int{2}, Counts: []int{3}}); err == nil {
		t.Fatal("CopyBox accepted out-of-range box")
	}
}

func TestCopyBoxEmpty(t *testing.T) {
	a := MustFromData(seq(12), Dim{"r", 3}, Dim{"c", 4})
	sub, err := a.CopyBox(Box{Offsets: []int{1, 1}, Counts: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 0 {
		t.Fatalf("empty box copy has %d elements", sub.Size())
	}
}

func TestPartition1DExact(t *testing.T) {
	// 10 over 4 parts: sizes 3,3,2,2.
	wantOff := []int{0, 3, 6, 8}
	wantCnt := []int{3, 3, 2, 2}
	for p := 0; p < 4; p++ {
		off, cnt := Partition1D(10, 4, p)
		if off != wantOff[p] || cnt != wantCnt[p] {
			t.Fatalf("Partition1D(10,4,%d) = (%d,%d), want (%d,%d)", p, off, cnt, wantOff[p], wantCnt[p])
		}
	}
}

func TestPartition1DMorePartsThanItems(t *testing.T) {
	total := 3
	covered := 0
	for p := 0; p < 8; p++ {
		off, cnt := Partition1D(total, 8, p)
		if cnt < 0 || off+cnt > total {
			t.Fatalf("part %d = (%d,%d) invalid", p, off, cnt)
		}
		covered += cnt
	}
	if covered != total {
		t.Fatalf("covered %d of %d", covered, total)
	}
}

func TestPartition1DPanics(t *testing.T) {
	for _, c := range []struct{ total, nparts, part int }{{10, 0, 0}, {10, 4, 4}, {10, 4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partition1D(%d,%d,%d) did not panic", c.total, c.nparts, c.part)
				}
			}()
			Partition1D(c.total, c.nparts, c.part)
		}()
	}
}

func TestPartitionAlongCoversShape(t *testing.T) {
	shape := []int{7, 5, 3}
	seen := New(Dim{"a", 7}, Dim{"b", 5}, Dim{"c", 3})
	nparts := 3
	for p := 0; p < nparts; p++ {
		b := PartitionAlong(shape, 0, nparts, p)
		if err := b.ValidIn(shape); err != nil {
			t.Fatal(err)
		}
		for i := b.Offsets[0]; i < b.Offsets[0]+b.Counts[0]; i++ {
			for j := 0; j < 5; j++ {
				for k := 0; k < 3; k++ {
					seen.Set(seen.At(i, j, k)+1, i, j, k)
				}
			}
		}
	}
	for i, v := range seen.Data() {
		if v != 1 {
			t.Fatalf("element %d covered %v times", i, v)
		}
	}
}

func TestBoxString(t *testing.T) {
	b := Box{Offsets: []int{0, 2}, Counts: []int{128, 3}}
	if got := b.String(); got != "[0+128 2+3]" {
		t.Fatalf("String = %q", got)
	}
}

func TestBoxCloneIndependent(t *testing.T) {
	b := Box{Offsets: []int{1}, Counts: []int{2}}
	c := b.Clone()
	c.Offsets[0] = 9
	if b.Offsets[0] != 1 {
		t.Fatal("Clone shares offsets")
	}
}
