package ndarray

import (
	"math/rand"
	"sync"
	"testing"
)

// The oracles below move one element at a time through At and Set, the
// plainest reading of each operation; every path of the run walker is
// checked against them.

// forEachIndex calls fn with every multi-index of shape in row-major
// order. fn must not keep idx.
func forEachIndex(shape []int, fn func(idx []int)) {
	if Volume(shape) == 0 {
		return
	}
	idx := make([]int, len(shape))
	for {
		fn(idx)
		i := len(shape) - 1
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < shape[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

func naiveTranspose(a *Array, perm []int) *Array {
	dims := make([]Dim, len(perm))
	for i, p := range perm {
		dims[i] = a.Dim(p)
	}
	out := New(dims...)
	src := make([]int, len(perm))
	forEachIndex(out.Shape(), func(idx []int) {
		for i, p := range perm {
			src[p] = idx[i]
		}
		out.Set(a.At(src...), idx...)
	})
	return out
}

func naiveCopyRegion(dst *Array, dstOff []int, src *Array, srcOff, counts []int) {
	d, s := make([]int, len(counts)), make([]int, len(counts))
	forEachIndex(counts, func(idx []int) {
		for i := range idx {
			d[i], s[i] = dstOff[i]+idx[i], srcOff[i]+idx[i]
		}
		dst.Set(src.At(s...), d...)
	})
}

func naiveSelect(a *Array, axis int, indices []int) *Array {
	dims := a.Dims()
	dims[axis].Size = len(indices)
	out := New(dims...)
	src := make([]int, len(dims))
	forEachIndex(out.Shape(), func(idx []int) {
		copy(src, idx)
		src[axis] = indices[idx[axis]]
		out.Set(a.At(src...), idx...)
	})
	return out
}

// walkShape draws 1–4 axes of extent 0–5, favouring extents above 1 but
// drawing size-1 and zero-size axes often enough to matter.
func walkShape(r *rand.Rand) []Dim {
	dims := make([]Dim, 1+r.Intn(4))
	for i := range dims {
		dims[i] = Dim{Name: string(rune('a' + i)), Size: []int{0, 1, 2, 3, 4, 5, 2, 3}[r.Intn(8)]}
		if dims[i].Size == 0 && r.Intn(3) > 0 {
			dims[i].Size = 4
		}
	}
	return dims
}

func filled(r *rand.Rand, dims []Dim) *Array {
	a := New(dims...)
	for i := range a.Data() {
		a.Data()[i] = r.NormFloat64()
	}
	return a
}

// Permutation kinds the walker distinguishes.
const (
	permIdentity = iota // one copy
	permTrailing        // leading axes permuted, trailing ones in place: runs
	permSwap            // two axes swapped in front of a fixed tail
	permGeneral
	permKinds
)

func drawPerm(r *rand.Rand, n, kind int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	switch kind {
	case permTrailing:
		lead := 1 + r.Intn(n)
		for i, p := range r.Perm(lead) {
			perm[i] = p
		}
	case permSwap:
		if n >= 2 {
			i := r.Intn(n - 1)
			j := i + 1 + r.Intn(n-1-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
	case permGeneral:
		perm = r.Perm(n)
	}
	return perm
}

// chunkRunner shards [0,n) into pieces of at most chunk values, in
// reverse order, so shard seeding and boundaries that cut runs, rows and
// tiles are all exercised.
func chunkRunner(chunk int) ShardRunner {
	return func(n int, fn func(lo, hi int)) {
		for hi := n; hi > 0; hi -= chunk {
			fn(max(0, hi-chunk), hi)
		}
	}
}

// goRunner runs each of up to shards pieces of [0,n) on its own
// goroutine and waits, so the race detector sees shards whose writes
// overlap.
func goRunner(shards int) ShardRunner {
	return func(n int, fn func(lo, hi int)) {
		var wg sync.WaitGroup
		chunk := (n + shards - 1) / shards
		for lo := 0; lo < n; lo += chunk {
			wg.Add(1)
			go func(lo int) {
				defer wg.Done()
				fn(lo, min(lo+chunk, n))
			}(lo)
		}
		wg.Wait()
	}
}

func TestWalkTransposeMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		a := filled(r, walkShape(r))
		kind := trial % permKinds
		perm := drawPerm(r, a.NDim(), kind)
		want := naiveTranspose(a, perm)
		for _, run := range []ShardRunner{nil, chunkRunner(1), chunkRunner(1 + r.Intn(7)), goRunner(3)} {
			got, err := a.TransposeWith(run, make([]float64, a.Size()), perm...)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: transpose %v of %v (kind %d) = %v, want %v",
					trial, perm, a, kind, got.Data(), want.Data())
			}
		}
	}
}

// A swap of two axes with trailing axes in place moves runs of the tail
// in tiles; extents above the tile edge cut tiles at both ends.
func TestWalkTransposeTiledSwap(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, dims := range [][]Dim{
		{{"x", 70}, {"y", 45}},
		{{"x", 33}, {"y", 65}, {"z", 3}},
		{{"w", 2}, {"x", 40}, {"y", 37}, {"z", 2}},
	} {
		a := filled(r, dims)
		perm := []int{1, 0}
		if len(dims) == 3 {
			perm = []int{1, 0, 2}
		} else if len(dims) == 4 {
			perm = []int{0, 2, 1, 3}
		}
		want := naiveTranspose(a, perm)
		for _, run := range []ShardRunner{nil, chunkRunner(97), goRunner(4)} {
			got, err := a.TransposeWith(run, nil, perm...)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("transpose %v of %v differs from the oracle", perm, a)
			}
		}
	}
}

// Ranks above walkRank plan on the heap; the result must not change.
func TestWalkTransposeHighRank(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dims := make([]Dim, walkRank+2)
	for i := range dims {
		dims[i] = Dim{Name: "d", Size: 2}
	}
	a := filled(r, dims)
	for trial := 0; trial < 20; trial++ {
		perm := r.Perm(len(dims))
		got, err := a.TransposeWith(chunkRunner(5), nil, perm...)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(naiveTranspose(a, perm)) {
			t.Fatalf("rank-%d transpose %v differs from the oracle", len(dims), perm)
		}
	}
}

func TestWalkCopyRegionMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		srcDims := walkShape(r)
		n := len(srcDims)
		dstDims := make([]Dim, n)
		counts := make([]int, n)
		srcOff, dstOff := make([]int, n), make([]int, n)
		// Axes from whole onward are spanned whole in both arrays, so
		// they fold into the run.
		whole := r.Intn(n + 1)
		for i := range srcDims {
			if i >= whole {
				dstDims[i] = srcDims[i]
				counts[i] = srcDims[i].Size
				continue
			}
			counts[i] = r.Intn(srcDims[i].Size + 1)
			srcOff[i] = r.Intn(srcDims[i].Size - counts[i] + 1)
			dstDims[i] = Dim{Name: "d", Size: counts[i] + r.Intn(3)}
			dstOff[i] = r.Intn(dstDims[i].Size - counts[i] + 1)
		}
		src := filled(r, srcDims)
		got, want := filled(r, dstDims), New(dstDims...)
		copy(want.Data(), got.Data())
		if err := CopyRegion(got, dstOff, src, srcOff, counts); err != nil {
			t.Fatal(err)
		}
		naiveCopyRegion(want, dstOff, src, srcOff, counts)
		if !got.Equal(want) {
			t.Fatalf("trial %d: CopyRegion %v+%v from %v+%v into %v differs from the oracle",
				trial, dstOff, counts, srcOff, src, dstDims)
		}
	}
}

func TestWalkBoxesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		a := filled(r, walkShape(r))
		n := a.NDim()
		b := Box{Offsets: make([]int, n), Counts: make([]int, n)}
		for i := 0; i < n; i++ {
			b.Counts[i] = r.Intn(a.Dim(i).Size + 1)
			b.Offsets[i] = r.Intn(a.Dim(i).Size - b.Counts[i] + 1)
		}
		sub, err := a.CopyBox(b)
		if err != nil {
			t.Fatal(err)
		}
		want := New(dimsWithCounts(a.Dims(), b.Counts)...)
		naiveCopyRegion(want, make([]int, n), a, b.Offsets, b.Counts)
		if !sub.Equal(want) {
			t.Fatalf("trial %d: CopyBox %v of %v differs from the oracle", trial, b, a)
		}
		back := filled(r, a.Dims())
		wantBack := back.Clone()
		if err := back.PasteBox(b, sub); err != nil {
			t.Fatal(err)
		}
		naiveCopyRegion(wantBack, b.Offsets, sub, make([]int, n), b.Counts)
		if !back.Equal(wantBack) {
			t.Fatalf("trial %d: PasteBox %v into %v differs from the oracle", trial, b, a)
		}
	}
}

func TestWalkSelectMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		dims := walkShape(r)
		// The last axis is the inner == 1 case; keep it common.
		axis := len(dims) - 1
		if r.Intn(2) == 0 {
			axis = r.Intn(len(dims))
		}
		if dims[axis].Size == 0 {
			dims[axis].Size = 3
		}
		a := filled(r, dims)
		size := dims[axis].Size
		var indices []int
		switch trial % 4 {
		case 0: // consecutive ascending: one strided copy
			m := 1 + r.Intn(size)
			start := r.Intn(size - m + 1)
			for k := 0; k < m; k++ {
				indices = append(indices, start+k)
			}
		case 1: // reversed
			for k := size - 1; k >= r.Intn(size); k-- {
				indices = append(indices, k)
			}
		case 2: // repeated
			ix := r.Intn(size)
			indices = []int{ix, ix, r.Intn(size), ix}
		default: // runs broken by gaps and repeats
			for k := 0; k < 1+r.Intn(6); k++ {
				indices = append(indices, r.Intn(size))
			}
		}
		want := naiveSelect(a, axis, indices)
		got, err := a.SelectIndicesInto(make([]float64, want.Size()), axis, indices)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: select %v along %d of %v = %v, want %v",
				trial, indices, axis, a, got.Data(), want.Data())
		}
	}
}

// The walker's plan stays off the heap: serial kernels allocate only
// the result array, its shape and argument bookkeeping, and a sharded
// one adds the plan it hands the shards. Shapes are the benchmark's: the 3-to-2 assembly of
// atoms[262144,3], GTCP's select of three quantities from [32,4096,7]
// and its two dimension-reduction transposes. The bounds are the counts
// the walker makes, so an allocation brought back fails the test.
func TestWalkAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~20 MB of test arrays")
	}
	atoms := New(Dim{"atoms", 262144}, Dim{"xyz", 3})
	half := New(Dim{"atoms", 131072}, Dim{"xyz", 3})
	gtcp := New(Dim{"slices", 32}, Dim{"points", 4096}, Dim{"q", 7})
	picked := make([]float64, 32*4096*3)
	chain := New(Dim{"slices", 32}, Dim{"points", 4096}, Dim{"q", 3})
	flat := New(Dim{"slices", 32}, Dim{"points", 12288})
	out := make([]float64, chain.Size())
	for _, c := range []struct {
		name  string
		bound float64
		fn    func() error
	}{
		{"CopyRegion", 0, func() error {
			return CopyRegion(half, []int{0, 0}, atoms, []int{65536, 0}, []int{131072, 3})
		}},
		{"SelectIndicesInto", 2, func() error {
			_, err := gtcp.SelectIndicesInto(picked, 2, []int{3, 4, 5})
			return err
		}},
		{"TransposeWith/identity", 3, func() error {
			_, err := chain.TransposeWith(nil, out, 0, 1, 2)
			return err
		}},
		{"TransposeWith/swap", 3, func() error {
			_, err := flat.TransposeWith(nil, out, 1, 0)
			return err
		}},
		{"DimReduceWith/sharded", 8, func() error {
			_, err := chain.DimReduceWith(chunkRunner(len(out)/2), out, 2, 1)
			return err
		}},
	} {
		var err error
		got := testing.AllocsPerRun(5, func() { err = c.fn() })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %.0f allocations per call (bound %.0f)", c.name, got, c.bound)
		if got > c.bound {
			t.Errorf("%s: %.0f allocations per call, want at most %.0f", c.name, got, c.bound)
		}
	}
}

// FuzzRunCopy checks CopyRegion and TransposeWith against the oracles
// on shapes, regions and permutations decoded from the fuzzer's bytes.
func FuzzRunCopy(f *testing.F) {
	f.Add([]byte{3, 4, 5, 2, 1, 0, 2, 1, 1, 0, 3})
	f.Add([]byte{2, 32, 12, 1, 0, 0, 0, 3, 5})
	f.Add([]byte{4, 2, 1, 3, 2, 3, 2, 1, 0, 1, 0, 1, 0, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 1 + next()%4
		dims := make([]Dim, n)
		for i := range dims {
			dims[i] = Dim{Name: "d", Size: next() % 9}
		}
		a := New(dims...)
		for i := range a.Data() {
			a.Data()[i] = float64(i + 1)
		}
		// A permutation by selection: each step picks one of the axes
		// not yet placed.
		left := make([]int, n)
		for i := range left {
			left[i] = i
		}
		perm := make([]int, 0, n)
		for len(left) > 0 {
			k := next() % len(left)
			perm = append(perm, left[k])
			left = append(left[:k], left[k+1:]...)
		}
		for _, run := range []ShardRunner{nil, chunkRunner(1 + next()%13)} {
			got, err := a.TransposeWith(run, nil, perm...)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveTranspose(a, perm); !got.Equal(want) {
				t.Fatalf("transpose %v of %v = %v, want %v", perm, a, got.Data(), want.Data())
			}
		}
		// A region of a inside a destination with per-axis margins.
		counts, srcOff, dstOff := make([]int, n), make([]int, n), make([]int, n)
		dstDims := make([]Dim, n)
		for i, d := range dims {
			counts[i] = next() % (d.Size + 1)
			srcOff[i] = next() % (d.Size - counts[i] + 1)
			margin := next() % 3
			dstDims[i] = Dim{Name: "d", Size: counts[i] + margin}
			dstOff[i] = next() % (margin + 1)
		}
		got, want := New(dstDims...), New(dstDims...)
		if err := CopyRegion(got, dstOff, a, srcOff, counts); err != nil {
			t.Fatal(err)
		}
		naiveCopyRegion(want, dstOff, a, srcOff, counts)
		if !got.Equal(want) {
			t.Fatalf("CopyRegion %v+%v from %v+%v differs from the oracle", dstOff, counts, srcOff, a)
		}
	})
}
