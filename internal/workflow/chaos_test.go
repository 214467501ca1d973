package workflow

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/components"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

// chaosProducer publishes a deterministic 2-D array per step from a
// random-but-seeded generator, so a serial reference can recompute the
// exact global data.
type chaosProducer struct {
	rows, cols, steps int
	seed              int64
	stream            string // the output stream; "" is chaos0.fp
}

func (p *chaosProducer) Name() string { return "chaos-producer" }

func (p *chaosProducer) global(step int) *ndarray.Array {
	a := ndarray.New(ndarray.Dim{Name: "rows", Size: p.rows}, ndarray.Dim{Name: "cols", Size: p.cols})
	rng := rand.New(rand.NewSource(p.seed + int64(step)))
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64() * 10
	}
	return a
}

func (p *chaosProducer) Run(env *sb.Env) error {
	stream := p.stream
	if stream == "" {
		stream = "chaos0.fp"
	}
	w, err := env.OpenWriter(stream)
	if err != nil {
		return err
	}
	defer w.Close()
	rank, size := env.Comm.Rank(), env.Comm.Size()
	// Resume-aware: after a supervised restart the re-attached writer
	// reports how far the previous incarnation published.
	for s := w.Steps(); s < p.steps; s++ {
		g := p.global(s)
		box := ndarray.PartitionAlong(g.Shape(), 0, size, rank)
		block, err := g.CopyBox(box)
		if err != nil {
			return err
		}
		if err := w.BeginStep(); err != nil {
			return err
		}
		if err := w.Write("data", g.Dims(), box, block.Data()); err != nil {
			return err
		}
		if err := w.EndStep(env.Ctx()); err != nil {
			return err
		}
	}
	return nil
}

// chaosOp is one randomly chosen intermediate stage with both its
// workflow stage and its serial reference semantics.
type chaosOp struct {
	stage Stage
	apply func(a *ndarray.Array) (*ndarray.Array, error)
}

// randomOp draws a shape-compatible intermediate component: scale (any
// shape) or sample (any shape, thins rows).
func randomOp(rng *rand.Rand, idx int) chaosOp {
	in := fmt.Sprintf("chaos%d.fp", idx)
	out := fmt.Sprintf("chaos%d.fp", idx+1)
	if rng.Intn(2) == 0 {
		factor := float64(1+rng.Intn(5)) / 2
		offset := float64(rng.Intn(7)) - 3
		return chaosOp{
			stage: Stage{Component: "scale",
				Args:  []string{in, "data", fmt.Sprint(factor), fmt.Sprint(offset), out, "data"},
				Procs: 1 + rng.Intn(3)},
			apply: func(a *ndarray.Array) (*ndarray.Array, error) {
				b := a.Clone()
				for i, v := range b.Data() {
					b.Data()[i] = factor*v + offset
				}
				return b, nil
			},
		}
	}
	stride := 1 + rng.Intn(4)
	return chaosOp{
		stage: Stage{Component: "sample",
			Args:  []string{in, "data", fmt.Sprint(stride), out, "data"},
			Procs: 1 + rng.Intn(3)},
		apply: func(a *ndarray.Array) (*ndarray.Array, error) {
			var keep []int
			for g := 0; g < a.Dim(0).Size; g += stride {
				keep = append(keep, g)
			}
			return a.SelectIndices(0, keep)
		},
	}
}

// TestQuickRandomPipelines builds random chains
// producer → (scale|sample)^k → stats and checks the distributed result
// against a serial recomputation — an end-to-end property test of the
// whole stack (transport, self-description, partitioning, components).
func TestQuickRandomPipelines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prod := &chaosProducer{
			rows:  1 + rng.Intn(40),
			cols:  1 + rng.Intn(4),
			steps: 1 + rng.Intn(3),
			seed:  seed,
		}
		nOps := rng.Intn(4)
		ops := make([]chaosOp, nOps)
		for i := range ops {
			ops[i] = randomOp(rng, i)
		}
		statsC, err := components.NewStats([]string{fmt.Sprintf("chaos%d.fp", nOps), "data"})
		if err != nil {
			t.Log(err)
			return false
		}
		st := statsC.(*components.Stats)

		spec := Spec{Name: "chaos", Stages: []Stage{{Instance: prod, Procs: 1 + rng.Intn(3)}}}
		for _, op := range ops {
			spec.Stages = append(spec.Stages, op.stage)
		}
		spec.Stages = append(spec.Stages, Stage{Instance: st, Procs: 1 + rng.Intn(3)})

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if _, err := Run(ctx, transport(), spec, Options{}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}

		results := st.Results()
		if len(results) != prod.steps {
			t.Logf("seed %d: %d results, want %d", seed, len(results), prod.steps)
			return false
		}
		for s, got := range results {
			ref := prod.global(s)
			for _, op := range ops {
				ref, err = op.apply(ref)
				if err != nil {
					t.Log(err)
					return false
				}
			}
			want, err := serialStats(ref.Data())
			if err != nil {
				t.Log(err)
				return false
			}
			if got.Count != want.Count ||
				math.Abs(got.Mean-want.Mean) > 1e-9 ||
				math.Abs(got.Std-want.Std) > 1e-9 ||
				got.Min != want.Min || got.Max != want.Max {
				t.Logf("seed %d step %d: got %+v want %+v (ops=%d)", seed, s, got, want, nOps)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// serialStats is an independent single-threaded reference for Stats.
func serialStats(vals []float64) (components.StepStats, error) {
	out := components.StepStats{Count: int64(len(vals))}
	if len(vals) == 0 {
		return out, nil
	}
	out.Min, out.Max = vals[0], vals[0]
	sum, sumSq := 0.0, 0.0
	for _, v := range vals {
		sum += v
		sumSq += v * v
		out.Min = math.Min(out.Min, v)
		out.Max = math.Max(out.Max, v)
	}
	out.Sum = sum
	out.Mean = sum / float64(len(vals))
	variance := sumSq/float64(len(vals)) - out.Mean*out.Mean
	if variance > 0 {
		out.Std = math.Sqrt(variance)
	}
	return out, nil
}
