package components

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/ndarray"
	"repro/internal/sb"
	"repro/internal/streamlog"
)

// harness runs a producer, a component under test, and a consumer
// concurrently over one broker, failing the test on any error.
type harness struct {
	t         *testing.T
	transport flexpath.InProc
	wg        sync.WaitGroup
	errs      chan error
}

func newHarness(t *testing.T) *harness {
	return &harness{
		t:         t,
		transport: flexpath.NewInProc(),
		errs:      make(chan error, 32),
	}
}

// produce publishes steps on a stream from `procs` writer ranks; gen
// returns the full global array and attributes for a step.
func (h *harness) produce(stream, array string, procs, steps int,
	gen func(step int) (*ndarray.Array, map[string]string)) {
	h.spawn(procs, func(comm *mpi.Comm) error {
		env := &sb.Env{Comm: comm, Transport: h.transport}
		w, err := env.OpenWriter(stream)
		if err != nil {
			return err
		}
		defer w.Close()
		for s := 0; s < steps; s++ {
			global, attrs := gen(s)
			axis := 0
			box := ndarray.PartitionAlong(global.Shape(), axis, comm.Size(), comm.Rank())
			block, err := global.CopyBox(box)
			if err != nil {
				return err
			}
			if err := w.BeginStep(); err != nil {
				return err
			}
			for k, v := range attrs {
				if err := w.SetAttribute(k, v); err != nil {
					return err
				}
			}
			if err := w.Write(array, global.Dims(), box, block.Data()); err != nil {
				return err
			}
			if err := w.EndStep(env.Ctx()); err != nil {
				return err
			}
		}
		return nil
	})
}

// runComponent runs a component with the given rank count.
func (h *harness) runComponent(c sb.Component, procs int) {
	h.spawn(procs, func(comm *mpi.Comm) error {
		env := &sb.Env{Comm: comm, Transport: h.transport}
		return c.Run(env)
	})
}

// consume reads every step of a stream with `procs` ranks and hands the
// assembled global array to check (called on rank 0 only).
func (h *harness) consume(stream, array string, procs int,
	check func(step int, got *ndarray.Array, info *adios.StepInfo) error) {
	h.spawn(procs, func(comm *mpi.Comm) error {
		env := &sb.Env{Comm: comm, Transport: h.transport}
		r, err := env.OpenReader(stream)
		if err != nil {
			return err
		}
		defer r.Close()
		for s := 0; ; s++ {
			info, err := r.BeginStep(env.Ctx())
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if comm.Rank() == 0 {
				got, err := r.ReadAll(env.Ctx(), array)
				if err != nil {
					return err
				}
				if err := check(s, got, info); err != nil {
					return fmt.Errorf("step %d: %w", s, err)
				}
			}
			if err := r.EndStep(); err != nil {
				return err
			}
		}
	})
}

func (h *harness) spawn(procs int, fn func(*mpi.Comm) error) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		if err := mpi.Run(procs, fn); err != nil {
			h.errs <- err
		}
	}()
}

func (h *harness) wait() {
	done := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		h.t.Fatal("harness timed out; workflow wedged")
	}
	close(h.errs)
	for err := range h.errs {
		h.t.Error(err)
	}
}

// lammpsLike builds a (particles×5) array with deterministic contents.
func lammpsLike(particles int) func(step int) (*ndarray.Array, map[string]string) {
	return func(step int) (*ndarray.Array, map[string]string) {
		a := ndarray.New(ndarray.Dim{Name: "particles", Size: particles}, ndarray.Dim{Name: "props", Size: 5})
		for p := 0; p < particles; p++ {
			a.Set(float64(p+1), p, 0)                    // ID
			a.Set(float64(p%3), p, 1)                    // Type
			a.Set(float64(step)+float64(p)*0.5, p, 2)    // vx
			a.Set(float64(step)-float64(p)*0.25, p, 3)   // vy
			a.Set(math.Sin(float64(step*7+p))*2.0, p, 4) // vz
		}
		return a, map[string]string{HeaderAttr("props"): adios.JoinList([]string{"ID", "Type", "vx", "vy", "vz"})}
	}
}

func TestSelectComponentExact(t *testing.T) {
	const particles, steps = 20, 3
	h := newHarness(t)
	gen := lammpsLike(particles)
	h.produce("in.fp", "atoms", 2, steps, gen)
	c, err := New("select", []string{"in.fp", "atoms", "1", "out.fp", "sel", "vx", "vy", "vz"})
	if err != nil {
		t.Fatal(err)
	}
	h.runComponent(c, 3)
	h.consume("out.fp", "sel", 1, func(step int, got *ndarray.Array, info *adios.StepInfo) error {
		want, _ := gen(step)
		ref, err := want.SelectIndices(1, []int{2, 3, 4})
		if err != nil {
			return err
		}
		if got.Dim(0).Size != particles || got.Dim(1).Size != 3 {
			return fmt.Errorf("shape %v", got.Dims())
		}
		for i, v := range got.Data() {
			if v != ref.Data()[i] {
				return fmt.Errorf("element %d = %v, want %v", i, v, ref.Data()[i])
			}
		}
		// The header must be rewritten for the selected columns.
		if hdr := info.ListAttr(HeaderAttr("props")); len(hdr) != 3 || hdr[0] != "vx" {
			return fmt.Errorf("forwarded header = %v", hdr)
		}
		return nil
	})
	h.wait()
}

func TestSelectMissingHeaderFails(t *testing.T) {
	h := newHarness(t)
	h.produce("in.fp", "atoms", 1, 1, func(step int) (*ndarray.Array, map[string]string) {
		return ndarray.New(ndarray.Dim{Name: "particles", Size: 4}, ndarray.Dim{Name: "props", Size: 5}), nil
	})
	c, _ := New("select", []string{"in.fp", "atoms", "1", "out.fp", "sel", "vx"})
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		return c.Run(&sb.Env{Comm: comm, Transport: h.transport})
	})
	if err == nil {
		t.Fatal("select without header succeeded")
	}
	h.wg.Wait()
}

func TestSelectUnknownNameFails(t *testing.T) {
	h := newHarness(t)
	gen := lammpsLike(4)
	h.produce("in.fp", "atoms", 1, 1, gen)
	c, _ := New("select", []string{"in.fp", "atoms", "1", "out.fp", "sel", "warp"})
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		return c.Run(&sb.Env{Comm: comm, Transport: h.transport})
	})
	if err == nil || !contains(err.Error(), "warp") {
		t.Fatalf("err = %v", err)
	}
	h.wg.Wait()
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestMagnitudeComponentExact(t *testing.T) {
	const points, steps = 17, 2
	h := newHarness(t)
	gen := func(step int) (*ndarray.Array, map[string]string) {
		a := ndarray.New(ndarray.Dim{Name: "atoms", Size: points}, ndarray.Dim{Name: "coords", Size: 3})
		for p := 0; p < points; p++ {
			a.Set(float64(p)+float64(step), p, 0)
			a.Set(float64(p)*2, p, 1)
			a.Set(-float64(p), p, 2)
		}
		return a, nil
	}
	h.produce("in.fp", "pos", 2, steps, gen)
	c, err := New("magnitude", []string{"in.fp", "pos", "out.fp", "mag"})
	if err != nil {
		t.Fatal(err)
	}
	h.runComponent(c, 4)
	h.consume("out.fp", "mag", 2, func(step int, got *ndarray.Array, info *adios.StepInfo) error {
		if got.NDim() != 1 || got.Dim(0).Size != points {
			return fmt.Errorf("shape %v", got.Dims())
		}
		ref, _ := gen(step)
		for p := 0; p < points; p++ {
			x, y, z := ref.At(p, 0), ref.At(p, 1), ref.At(p, 2)
			want := math.Sqrt(x*x + y*y + z*z)
			if math.Abs(got.At(p)-want) > 1e-12 {
				return fmt.Errorf("mag[%d] = %v, want %v", p, got.At(p), want)
			}
		}
		return nil
	})
	h.wait()
}

func TestMagnitudeRejectsNon2D(t *testing.T) {
	h := newHarness(t)
	h.produce("in.fp", "x", 1, 1, func(step int) (*ndarray.Array, map[string]string) {
		return ndarray.New(ndarray.Dim{Name: "n", Size: 4}), nil
	})
	c, _ := New("magnitude", []string{"in.fp", "x", "out.fp", "y"})
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		return c.Run(&sb.Env{Comm: comm, Transport: h.transport})
	})
	if err == nil {
		t.Fatal("magnitude accepted 1-D input")
	}
	h.wg.Wait()
}

func TestDimReduceComponentExact(t *testing.T) {
	// The GTCP shape: (slices, points, quantities=1), reduced twice down
	// to 1-D, through multi-rank stages.
	const slices, points, steps = 6, 8, 2
	h := newHarness(t)
	gen := func(step int) (*ndarray.Array, map[string]string) {
		a := ndarray.New(
			ndarray.Dim{Name: "slices", Size: slices},
			ndarray.Dim{Name: "points", Size: points},
			ndarray.Dim{Name: "quantities", Size: 1})
		for i := range a.Data() {
			a.Data()[i] = float64(step*1000 + i)
		}
		return a, nil
	}
	h.produce("in.fp", "grid", 2, steps, gen)
	c1, err := New("dim-reduce", []string{"in.fp", "grid", "2", "1", "mid.fp", "grid2"})
	if err != nil {
		t.Fatal(err)
	}
	h.runComponent(c1, 3)
	c2, err := New("dim-reduce", []string{"mid.fp", "grid2", "0", "1", "out.fp", "flat"})
	if err != nil {
		t.Fatal(err)
	}
	h.runComponent(c2, 2)
	h.consume("out.fp", "flat", 1, func(step int, got *ndarray.Array, info *adios.StepInfo) error {
		ref, _ := gen(step)
		r1, err := ref.DimReduce(2, 1)
		if err != nil {
			return err
		}
		r2, err := r1.DimReduce(0, 1)
		if err != nil {
			return err
		}
		if got.NDim() != 1 || got.Dim(0).Size != slices*points {
			return fmt.Errorf("shape %v", got.Dims())
		}
		for i, v := range got.Data() {
			if v != r2.Data()[i] {
				return fmt.Errorf("element %d = %v, want %v", i, v, r2.Data()[i])
			}
		}
		return nil
	})
	h.wait()
}

func TestDimReducePartitionedOnGrowAxis(t *testing.T) {
	// Remove axis 0, grow axis 1: the partitioner must avoid axis 0
	// (reserved) and split the grow axis; output must still be exact.
	const a0, a1 = 4, 10
	h := newHarness(t)
	gen := func(step int) (*ndarray.Array, map[string]string) {
		arr := ndarray.New(ndarray.Dim{Name: "a", Size: a0}, ndarray.Dim{Name: "b", Size: a1})
		for i := range arr.Data() {
			arr.Data()[i] = float64(i)
		}
		return arr, nil
	}
	h.produce("in.fp", "x", 1, 1, gen)
	c, _ := New("dim-reduce", []string{"in.fp", "x", "0", "1", "out.fp", "y"})
	h.runComponent(c, 3)
	h.consume("out.fp", "y", 1, func(step int, got *ndarray.Array, info *adios.StepInfo) error {
		ref, _ := gen(step)
		want, err := ref.DimReduce(0, 1)
		if err != nil {
			return err
		}
		if !got.Equal(want) {
			return fmt.Errorf("got %v want %v", got.Data(), want.Data())
		}
		return nil
	})
	h.wait()
}

func TestHistogramComponentEndToEnd(t *testing.T) {
	const n, steps, bins = 64, 3, 8
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.txt")
	h := newHarness(t)
	gen := func(step int) (*ndarray.Array, map[string]string) {
		a := ndarray.New(ndarray.Dim{Name: "values", Size: n})
		for i := range a.Data() {
			a.Data()[i] = float64((i*13+step*7)%100) / 10
		}
		return a, nil
	}
	h.produce("in.fp", "vals", 2, steps, gen)
	c, err := New("histogram", []string{"in.fp", "vals", fmt.Sprint(bins), path})
	if err != nil {
		t.Fatal(err)
	}
	hist := c.(*Histogram)
	h.runComponent(c, 3)
	h.wait()

	results := hist.Results()
	if len(results) != steps {
		t.Fatalf("got %d results, want %d", len(results), steps)
	}
	for s, r := range results {
		if r.Step != s || r.Total != n {
			t.Fatalf("result %d = %+v", s, r)
		}
		ref, _ := gen(s)
		want := serialHistogram(ref.Data(), bins)
		if r.Min != want.Min || r.Max != want.Max {
			t.Fatalf("step %d extremes: %+v vs %+v", s, r, want)
		}
		for i := range r.Counts {
			if r.Counts[i] != want.Counts[i] {
				t.Fatalf("step %d counts %v, want %v", s, r.Counts, want.Counts)
			}
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(string(data), "# step 2") {
		t.Fatalf("output file missing step 2:\n%s", data)
	}
}

func TestHistogramRejects2D(t *testing.T) {
	h := newHarness(t)
	h.produce("in.fp", "x", 1, 1, func(step int) (*ndarray.Array, map[string]string) {
		return ndarray.New(ndarray.Dim{Name: "a", Size: 2}, ndarray.Dim{Name: "b", Size: 2}), nil
	})
	c, _ := New("histogram", []string{"in.fp", "x", "4"})
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		return c.Run(&sb.Env{Comm: comm, Transport: h.transport})
	})
	if err == nil {
		t.Fatal("histogram accepted 2-D input")
	}
	h.wg.Wait()
}

func TestForkComponent(t *testing.T) {
	const n, steps = 12, 2
	h := newHarness(t)
	gen := func(step int) (*ndarray.Array, map[string]string) {
		a := ndarray.New(ndarray.Dim{Name: "n", Size: n})
		for i := range a.Data() {
			a.Data()[i] = float64(step*100 + i)
		}
		return a, map[string]string{"tag": "forked"}
	}
	h.produce("in.fp", "x", 2, steps, gen)
	c, err := New("fork", []string{"in.fp", "x", "a.fp", "b.fp"})
	if err != nil {
		t.Fatal(err)
	}
	h.runComponent(c, 2)
	check := func(step int, got *ndarray.Array, info *adios.StepInfo) error {
		ref, _ := gen(step)
		if !got.Equal(ref) {
			return fmt.Errorf("fork output differs")
		}
		if info.Attrs["tag"] != "forked" {
			return fmt.Errorf("attributes not forwarded: %v", info.Attrs)
		}
		return nil
	}
	h.consume("a.fp", "x", 1, check)
	h.consume("b.fp", "x", 2, check)
	h.wait()
}

func TestAllPairsComponent(t *testing.T) {
	const points, sample = 10, 6
	h := newHarness(t)
	gen := func(step int) (*ndarray.Array, map[string]string) {
		a := ndarray.New(ndarray.Dim{Name: "atoms", Size: points}, ndarray.Dim{Name: "coords", Size: 2})
		for p := 0; p < points; p++ {
			a.Set(float64(p), p, 0)
			a.Set(float64(p*p)*0.1, p, 1)
		}
		return a, nil
	}
	h.produce("in.fp", "pos", 1, 1, gen)
	c, err := New("all-pairs", []string{"in.fp", "pos", "out.fp", "dist", fmt.Sprint(sample)})
	if err != nil {
		t.Fatal(err)
	}
	h.runComponent(c, 3)
	h.consume("out.fp", "dist", 1, func(step int, got *ndarray.Array, info *adios.StepInfo) error {
		if got.Dim(0).Size != sample || got.Dim(1).Size != sample {
			return fmt.Errorf("shape %v", got.Dims())
		}
		ref, _ := gen(step)
		for i := 0; i < sample; i++ {
			for j := 0; j < sample; j++ {
				dx := ref.At(i, 0) - ref.At(j, 0)
				dy := ref.At(i, 1) - ref.At(j, 1)
				want := math.Sqrt(dx*dx + dy*dy)
				if math.Abs(got.At(i, j)-want) > 1e-12 {
					return fmt.Errorf("dist(%d,%d) = %v, want %v", i, j, got.At(i, j), want)
				}
			}
		}
		// Distance matrix properties: symmetric with zero diagonal.
		for i := 0; i < sample; i++ {
			if got.At(i, i) != 0 {
				return fmt.Errorf("diagonal %d nonzero", i)
			}
		}
		return nil
	})
	h.wait()
}

func TestStorageRoundTrip(t *testing.T) {
	const n, steps = 16, 3
	dir := t.TempDir()
	gen := func(step int) (*ndarray.Array, map[string]string) {
		a := ndarray.New(ndarray.Dim{Name: "n", Size: n})
		for i := range a.Data() {
			a.Data()[i] = float64(step) + float64(i)*0.01
		}
		return a, map[string]string{"phase": fmt.Sprint(step)}
	}

	// Phase 1: stream → disk with 2 writer ranks.
	h1 := newHarness(t)
	h1.produce("in.fp", "x", 2, steps, gen)
	cw, err := New("file-writer", []string{"in.fp", "x", dir})
	if err != nil {
		t.Fatal(err)
	}
	h1.runComponent(cw, 2)
	h1.wait()

	// The directory now holds one recorded stream: steps records from 2
	// writer ranks, then an end record.
	checkRecording(t, dir, "in.fp", 2, steps)

	// Phase 2 (separately launched): disk → stream with 3 reader ranks.
	h2 := newHarness(t)
	cr, err := New("file-reader", []string{dir, "replay.fp"})
	if err != nil {
		t.Fatal(err)
	}
	h2.runComponent(cr, 3)
	h2.consume("replay.fp", "x", 2, func(step int, got *ndarray.Array, info *adios.StepInfo) error {
		ref, attrs := gen(step)
		if !got.Equal(ref) {
			return fmt.Errorf("replayed data differs at step %d", step)
		}
		if info.Attrs["phase"] != attrs["phase"] {
			return fmt.Errorf("attributes lost: %v", info.Attrs)
		}
		return nil
	})
	h2.wait()
}

// checkRecording asserts that dir holds exactly one recorded stream,
// written by size ranks, with steps 0..steps-1 and an end record.
func checkRecording(t *testing.T, dir, stream string, size, steps int) {
	t.Helper()
	src, err := flexpath.OpenLogSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if got := src.Streams(); len(got) != 1 || got[0] != stream {
		t.Fatalf("recorded streams %v, want [%s]", got, stream)
	}
	r, err := src.AttachReader(stream, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n, err := r.WriterSize(context.Background()); err != nil || n != size {
		t.Fatalf("WriterSize = %d, %v; want %d", n, err, size)
	}
	lg, err := src.Store().Log(stream)
	if err != nil {
		t.Fatal(err)
	}
	if lg.FirstStep() != 0 || lg.NextStep() != steps {
		t.Fatalf("recorded steps [%d..%d), want [0..%d)", lg.FirstStep(), lg.NextStep(), steps)
	}
	if last, ended := lg.Ended(); !ended || last != steps-1 {
		t.Fatalf("Ended() = %d, %v; want %d, true", last, ended, steps-1)
	}
}

// recordSteps appends steps 0..steps-1 of gen to the store at dir as
// size writer ranks would have published them, without an end record:
// the state a crashed recorder leaves.
func recordSteps(t *testing.T, dir, stream, array string, size, steps int,
	gen func(step int) (*ndarray.Array, map[string]string)) {
	t.Helper()
	store, err := streamlog.OpenStore(dir, streamlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lg, err := store.Log(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.SetConfig(streamlog.Config{WriterSize: size, QueueDepth: flexpath.DefaultQueueDepth}); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		global, attrs := gen(step)
		metas, payloads := make([][]byte, size), make([][]byte, size)
		for rank := range metas {
			box := ndarray.PartitionAlong(global.Shape(), 0, size, rank)
			block, err := global.CopyBox(box)
			if err != nil {
				t.Fatal(err)
			}
			metas[rank] = adios.EncodeMeta(&adios.BlockMeta{Step: step,
				Vars: []adios.VarMeta{{Name: array, GlobalDims: global.Dims(), Box: box}}, Attrs: attrs})
			payloads[rank] = adios.EncodePayload([]string{array}, [][]float64{block.Data()})
		}
		if err := lg.Append(step, metas, payloads); err != nil {
			t.Fatal(err)
		}
	}
}

// A file-writer restarted on a store that already holds steps 0..k-1
// gathers those steps again but appends only from step k, so the
// recording stays the first run's prefix followed by the rest.
func TestFileWriterResumesRecording(t *testing.T) {
	const n, steps, k = 12, 4, 2
	dir := t.TempDir()
	gen := func(step int) (*ndarray.Array, map[string]string) {
		a := ndarray.New(ndarray.Dim{Name: "n", Size: n})
		for i := range a.Data() {
			a.Data()[i] = float64(step)*10 + float64(i)
		}
		return a, map[string]string{"phase": fmt.Sprint(step)}
	}
	earlier := func(step int) (*ndarray.Array, map[string]string) {
		a, attrs := gen(step)
		for i, v := range a.Data() {
			a.Data()[i] = -v
		}
		return a, attrs
	}
	recordSteps(t, dir, "in.fp", "x", 2, k, earlier)

	h1 := newHarness(t)
	h1.produce("in.fp", "x", 2, steps, gen)
	cw, err := New("file-writer", []string{"in.fp", "x", dir})
	if err != nil {
		t.Fatal(err)
	}
	h1.runComponent(cw, 2)
	h1.wait()
	checkRecording(t, dir, "in.fp", 2, steps)

	h2 := newHarness(t)
	cr, err := New("file-reader", []string{dir, "replay.fp"})
	if err != nil {
		t.Fatal(err)
	}
	h2.runComponent(cr, 2)
	seen := 0
	h2.consume("replay.fp", "x", 1, func(step int, got *ndarray.Array, info *adios.StepInfo) error {
		seen++
		ref, _ := gen(step)
		if step < k {
			ref, _ = earlier(step)
		}
		if !got.Equal(ref) {
			return fmt.Errorf("replayed data %v, want %v", got.Data(), ref.Data())
		}
		return nil
	})
	h2.wait()
	if seen != steps {
		t.Fatalf("replayed %d steps, want %d", seen, steps)
	}
}

// file-reader replays exactly one recorded stream; a store holding two
// is refused with an error naming them.
func TestFileReaderRejectsManyStreams(t *testing.T) {
	dir := t.TempDir()
	gen := func(step int) (*ndarray.Array, map[string]string) {
		return ndarray.New(ndarray.Dim{Name: "n", Size: 4}), nil
	}
	recordSteps(t, dir, "a.fp", "x", 1, 1, gen)
	recordSteps(t, dir, "b.fp", "x", 1, 1, gen)
	c, _ := New("file-reader", []string{dir, "out.fp"})
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		return c.Run(&sb.Env{Comm: comm, Transport: flexpath.NewInProc()})
	})
	if err == nil || !strings.Contains(err.Error(), "2 recorded streams [a.fp b.fp]") {
		t.Fatalf("file-reader on two streams: %v", err)
	}
}

func TestFileReaderEmptyDir(t *testing.T) {
	c, _ := New("file-reader", []string{t.TempDir(), "x.fp"})
	broker := flexpath.NewBroker()
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		return c.Run(&sb.Env{Comm: comm, Transport: flexpath.InProc{B: broker}})
	})
	if err == nil {
		t.Fatal("file-reader on empty dir succeeded")
	}
}
