package sb

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/ndarray"
)

// summer is a toy ReduceKernel: the global sum of the array.
type summer struct{}

func (summer) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}

func (summer) Reduce(in *StepInput) (float64, error) {
	local := 0.0
	for _, v := range in.Block.Data() {
		local += v
	}
	return mpi.Allreduce(in.Env.Comm, local, mpi.Sum[float64])
}

func TestRunReduceEndToEnd(t *testing.T) {
	broker := flexpath.NewBroker()
	transport := flexpath.InProc{B: broker}
	const steps, n = 3, 30

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mpi.Run(2, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport}
			w, err := env.OpenWriter("sum.fp")
			if err != nil {
				return err
			}
			defer w.Close()
			for s := 0; s < steps; s++ {
				arr := ndarray.New(ndarray.Dim{Name: "n", Size: n})
				for i := range arr.Data() {
					arr.Data()[i] = float64(s + 1)
				}
				box := ndarray.PartitionAlong(arr.Shape(), 0, comm.Size(), comm.Rank())
				block, err := arr.CopyBox(box)
				if err != nil {
					return err
				}
				w.BeginStep()
				if err := w.Write("x", arr.Dims(), box, block.Data()); err != nil {
					return err
				}
				if err := w.EndStep(env.Ctx()); err != nil {
					return err
				}
			}
			return nil
		})
	}()

	var mu sync.Mutex
	var got []float64
	metrics := NewMetrics("summer")
	err := mpi.Run(3, func(comm *mpi.Comm) error {
		env := &Env{Comm: comm, Transport: transport, Metrics: metrics}
		return RunReduce(env, ReduceConfig[float64]{
			Name:     "summer",
			InStream: "sum.fp", InArray: "x",
			RequireDims: 1,
			OutBytes:    8,
			OnResult: func(step int, result float64) error {
				mu.Lock()
				got = append(got, result)
				mu.Unlock()
				return nil
			},
		}, summer{})
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != steps {
		t.Fatalf("OnResult fired %d times, want %d", len(got), steps)
	}
	for s, sum := range got {
		if want := float64(n * (s + 1)); sum != want {
			t.Fatalf("step %d sum = %v, want %v", s, sum, want)
		}
	}
	if len(metrics.Steps()) != steps {
		t.Fatalf("metrics recorded %d steps", len(metrics.Steps()))
	}
	st, _ := metrics.Step(0)
	if st.Samples != 3 || st.BytesOut != 3*8 {
		t.Fatalf("step stats = %+v", st)
	}
}

func TestRunReduceRequireDims(t *testing.T) {
	broker := flexpath.NewBroker()
	transport := flexpath.InProc{B: broker}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mpi.Run(1, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport}
			w, _ := env.OpenWriter("rd.fp")
			defer w.Close()
			w.BeginStep()
			w.WriteArray("x", ndarray.New(ndarray.Dim{Name: "a", Size: 2}, ndarray.Dim{Name: "b", Size: 2}))
			return w.EndStep(env.Ctx())
		})
	}()
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		env := &Env{Comm: comm, Transport: transport}
		return RunReduce(env, ReduceConfig[float64]{
			Name: "summer", InStream: "rd.fp", InArray: "x", RequireDims: 1,
		}, summer{})
	})
	if err == nil || !strings.Contains(err.Error(), "1-dimensional") {
		t.Fatalf("err = %v", err)
	}
	wg.Wait()
}

func TestRunReduceOnResultError(t *testing.T) {
	broker := flexpath.NewBroker()
	transport := flexpath.InProc{B: broker}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mpi.Run(1, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport}
			w, _ := env.OpenWriter("oe.fp")
			defer w.Close()
			w.BeginStep()
			w.WriteArray("x", ndarray.New(ndarray.Dim{Name: "n", Size: 4}))
			return w.EndStep(env.Ctx())
		})
	}()
	sentinel := errors.New("sink is full")
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		env := &Env{Comm: comm, Transport: transport}
		return RunReduce(env, ReduceConfig[float64]{
			Name: "summer", InStream: "oe.fp", InArray: "x",
			OnResult: func(step int, result float64) error { return sentinel },
		}, summer{})
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	wg.Wait()
}
