package sb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/ndarray"
)

// fuseFake is a minimal Fusable map component for constructor tests.
type fuseFake struct{ cfg MapConfig }

func (f *fuseFake) Name() string { return f.cfg.Name }
func (f *fuseFake) Run(env *Env) error {
	cfg, k := f.MapSpec()
	return RunMap(env, cfg, k)
}
func (f *fuseFake) MapSpec() (MapConfig, MapKernel) { return f.cfg, f }
func (f *fuseFake) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}
func (f *fuseFake) Transform(in *StepInput) (*StepOutput, error) {
	return &StepOutput{GlobalDims: in.Var.Dims, Box: in.Box, Data: in.Block.Data()}, nil
}

// opaqueComp implements Component but not Fusable.
type opaqueComp struct{}

func (opaqueComp) Name() string       { return "opaque" }
func (opaqueComp) Run(env *Env) error { return nil }

func fakeMap(name, inStream, inArray, outStream, outArray string) *fuseFake {
	return &fuseFake{cfg: MapConfig{
		Name: name, InStream: inStream, InArray: inArray,
		OutStream: outStream, OutArray: outArray,
	}}
}

func TestNewFusedValidation(t *testing.T) {
	a := fakeMap("a", "in.fp", "x", "mid.fp", "y")
	b := fakeMap("b", "mid.fp", "y", "out.fp", "z")
	cases := map[string][]Component{
		"too few":         {a},
		"none":            {},
		"not fusable":     {a, opaqueComp{}},
		"stream mismatch": {a, fakeMap("b", "other.fp", "y", "out.fp", "z")},
		"array mismatch":  {a, fakeMap("b", "mid.fp", "other", "out.fp", "z")},
		"order reversed":  {b, a},
	}
	for name, comps := range cases {
		if _, err := NewFused(comps...); err == nil {
			t.Errorf("NewFused(%s) succeeded", name)
		}
	}
	if _, err := NewFused(a, b); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestFusedIntrospection(t *testing.T) {
	f, err := NewFused(
		fakeMap("a", "in.fp", "x", "mid.fp", "y"),
		fakeMap("b", "mid.fp", "y", "mid2.fp", "z"),
		fakeMap("c", "mid2.fp", "z", "out.fp", "w"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "a+b+c" {
		t.Fatalf("Name = %q", f.Name())
	}
	ports := f.Ports()
	if len(ports) != 2 {
		t.Fatalf("Ports = %+v", ports)
	}
	in, out := ports[0], ports[1]
	if in.Dir != PortIn || in.Stream != "in.fp" || in.Array != "x" {
		t.Fatalf("in port = %+v", in)
	}
	if out.Dir != PortOut || out.Stream != "out.fp" || out.Array != "w" {
		t.Fatalf("out port = %+v", out)
	}
}

// TestFusedBindMetrics: each part keeps its own Metrics identity so
// comp.<name>.* gauges and report rows survive fusion.
func TestFusedBindMetrics(t *testing.T) {
	f, err := NewFused(
		fakeMap("a", "in.fp", "x", "mid.fp", "y"),
		fakeMap("b", "mid.fp", "y", "out.fp", "z"),
	)
	if err != nil {
		t.Fatal(err)
	}
	ms := f.BindMetrics(3, nil)
	if len(ms) != 2 {
		t.Fatalf("BindMetrics returned %d metrics", len(ms))
	}
	if ms[0].Component() != "a" || ms[1].Component() != "b" {
		t.Fatalf("metrics components = %q, %q", ms[0].Component(), ms[1].Component())
	}
	// Binding again must return the same instances (one identity per part).
	again := f.BindMetrics(3, nil)
	if again[0] != ms[0] || again[1] != ms[1] {
		t.Fatal("BindMetrics is not idempotent")
	}
}

// outBlock is one rank's output block of an 8-element 1-D global array.
func outBlock(t *testing.T, off, cnt int, vals ...float64) *StepOutput {
	t.Helper()
	if len(vals) != cnt {
		t.Fatalf("block values %d != count %d", len(vals), cnt)
	}
	return &StepOutput{
		GlobalDims: []ndarray.Dim{{Name: "x", Size: 8}},
		Box:        ndarray.Box{Offsets: []int{off}, Counts: []int{cnt}},
		Data:       vals,
	}
}

// TestAssembleZeroCopy: when one block covers the requested box
// exactly, the assembled array aliases its data — the aligned fused
// edge moves no bytes.
func TestAssembleZeroCopy(t *testing.T) {
	outs := []*StepOutput{
		outBlock(t, 0, 4, 1, 2, 3, 4),
		outBlock(t, 4, 4, 5, 6, 7, 8),
	}
	box := ndarray.Box{Offsets: []int{4}, Counts: []int{4}}
	arr, err := assembleBox(outs, box)
	if err != nil {
		t.Fatal(err)
	}
	outs[1].Data[0] = 99
	if arr.Data()[0] != 99 {
		t.Fatal("aligned assembly copied instead of aliasing")
	}
	if arr.Dims()[0].Name != "x" {
		t.Fatalf("assembled dims = %+v, want the global axis name", arr.Dims())
	}
}

// TestAssembleCrossPartition assembles a box spanning two blocks.
func TestAssembleCrossPartition(t *testing.T) {
	outs := []*StepOutput{
		outBlock(t, 0, 4, 1, 2, 3, 4),
		outBlock(t, 4, 4, 5, 6, 7, 8),
	}
	box := ndarray.Box{Offsets: []int{2}, Counts: []int{4}}
	arr, err := assembleBox(outs, box)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 4, 5, 6}
	for i, v := range arr.Data() {
		if v != want[i] {
			t.Fatalf("assembled = %v, want %v", arr.Data(), want)
		}
	}
}

// TestAssembleCoverageError: a box the gathered blocks do not fully
// cover is an error, not silently zero-filled data.
func TestAssembleCoverageError(t *testing.T) {
	outs := []*StepOutput{outBlock(t, 0, 4, 1, 2, 3, 4)}
	box := ndarray.Box{Offsets: []int{2}, Counts: []int{4}}
	if _, err := assembleBox(outs, box); err == nil {
		t.Fatal("partial coverage assembled without error")
	}
	if _, err := assembleBox(nil, box); err == nil {
		t.Fatal("assembly from no blocks succeeded")
	}
}

// copyKernel copies its block into fresh output, reserving the given
// input axes; on failRank at failStep it fails instead.
type copyKernel struct {
	reserved           []int
	failRank, failStep int
}

var errCopyKernel = errors.New("copy kernel failed")

func (k copyKernel) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return k.reserved, nil
}

func (k copyKernel) Transform(in *StepInput) (*StepOutput, error) {
	if in.Env.Comm.Rank() == k.failRank && in.Info.Step == k.failStep {
		return nil, errCopyKernel
	}
	out := in.Scratch.Floats(in.Block.Size())
	copy(out, in.Block.Data())
	return &StepOutput{GlobalDims: in.Var.Dims, Box: in.Box, Data: out}, nil
}

// copyMap is a Fusable component around a copyKernel.
type copyMap struct {
	cfg    MapConfig
	kernel copyKernel
}

func (c *copyMap) Name() string                    { return c.cfg.Name }
func (c *copyMap) Run(env *Env) error              { return RunMap(env, c.cfg, c.kernel) }
func (c *copyMap) MapSpec() (MapConfig, MapKernel) { return c.cfg, c.kernel }

// TestFusedExchangeFailureUnblocksPeers: in a 2-rank chain whose second
// kernel partitions along another axis, every step gathers the ranks'
// blocks. When rank 1's first kernel fails at step 1, rank 0 is left
// waiting in that gather; the failure must abort the world and surface
// as the kernel's own error, not as the peer's ErrAborted.
func TestFusedExchangeFailureUnblocksPeers(t *testing.T) {
	broker := flexpath.NewBroker()
	transport := flexpath.InProc{B: broker}
	const steps = 2 // within the default queue depth: the producer never waits on the chain
	prodErr := make(chan error, 1)
	go func() {
		prodErr <- mpi.Run(1, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport}
			w, err := env.OpenWriter("grid.fp")
			if err != nil {
				return err
			}
			defer w.Close()
			for s := 0; s < steps; s++ {
				arr := ndarray.New(ndarray.Dim{Name: "r", Size: 4}, ndarray.Dim{Name: "c", Size: 6})
				for i := range arr.Data() {
					arr.Data()[i] = float64(100*s + i)
				}
				w.BeginStep()
				if err := w.WriteArray("g", arr); err != nil {
					return err
				}
				if err := w.EndStep(env.Ctx()); err != nil {
					return err
				}
			}
			return nil
		})
	}()

	f, err := NewFused(
		&copyMap{cfg: MapConfig{Name: "rows", InStream: "grid.fp", InArray: "g", OutStream: "mid.fp", OutArray: "m"},
			kernel: copyKernel{failRank: 1, failStep: 1}},
		&copyMap{cfg: MapConfig{Name: "cols", InStream: "mid.fp", InArray: "m", OutStream: "out.fp", OutArray: "o"},
			kernel: copyKernel{reserved: []int{0}, failRank: -1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(2, func(comm *mpi.Comm) error {
			return f.Run(&Env{Comm: comm, Transport: transport})
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errCopyKernel) || errors.Is(err, mpi.ErrAborted) {
			t.Fatalf("run returned %v, want the failing kernel's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a peer stayed blocked in the fused exchange after rank 1 failed")
	}
	if err := <-prodErr; err != nil {
		t.Fatalf("producer: %v", err)
	}
	if st, ok := f.BindMetrics(2, nil)[0].Step(0); !ok || st.Samples != 2 {
		t.Fatalf("step 0 of the first part = %+v, %v; want both ranks recorded", st, ok)
	}
}
