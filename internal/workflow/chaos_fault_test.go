package workflow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/components"
	"repro/internal/fault"
	"repro/internal/flexpath"
)

// chaosSpec builds the fixed three-stage pipeline the chaos suite runs:
// producer → scale ×2.5 −1 → stats, with a serial reference closure that
// recomputes the expected per-step statistics from first principles.
func chaosSpec(t *testing.T, prod *chaosProducer) (Spec, *components.Stats, func(step int) components.StepStats) {
	t.Helper()
	statsC, err := components.NewStats([]string{"chaos1.fp", "data"})
	if err != nil {
		t.Fatal(err)
	}
	st := statsC.(*components.Stats)
	spec := Spec{
		Name: "chaos",
		Stages: []Stage{
			{Instance: prod, Procs: 2},
			{Component: "scale", Args: []string{"chaos0.fp", "data", "2.5", "-1", "chaos1.fp", "data"}, Procs: 2},
			{Instance: st, Procs: 1},
		},
	}
	ref := func(step int) components.StepStats {
		g := prod.global(step)
		for i, v := range g.Data() {
			g.Data()[i] = 2.5*v - 1
		}
		want, err := serialStats(g.Data())
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	return spec, st, ref
}

// assertChaosResults checks the distributed run against the serial
// reference, bit-for-bit on min/max/count and to 1e-9 on the moments.
func assertChaosResults(t *testing.T, st *components.Stats, steps int, ref func(int) components.StepStats) {
	t.Helper()
	results := st.Results()
	if len(results) != steps {
		t.Fatalf("stats saw %d steps, want %d (duplicate or lost steps after restart)", len(results), steps)
	}
	for s, got := range results {
		want := ref(s)
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
			math.Abs(got.Mean-want.Mean) > 1e-9 || math.Abs(got.Std-want.Std) > 1e-9 {
			t.Fatalf("step %d diverged after recovery:\n got %+v\nwant %+v", s, got, want)
		}
	}
}

// TestChaosPipelineRecoversToIdenticalResults runs the pipeline under a
// seeded plan mixing latency, plain transient errors, and connection
// resets, with supervision enabled — and demands the exact same results a
// fault-free serial evaluation produces. Exactly-once delivery after
// restarts is the point: a duplicated or skipped step shows up as a
// count/moment mismatch.
func TestChaosPipelineRecoversToIdenticalResults(t *testing.T) {
	prod := &chaosProducer{rows: 24, cols: 3, steps: 6, seed: 20250805}
	spec, st, ref := chaosSpec(t, prod)
	tr := fault.New(transport(), fault.Plan{
		Seed:        11,
		ErrRate:     0.04,
		ResetRate:   0.02,
		LatencyRate: 0.2,
		MaxLatency:  2 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec.Restart = RestartPolicy{MaxRestarts: 50, Backoff: time.Millisecond, StepTimeout: 5 * time.Second}
	res, err := Run(ctx, tr, spec, Options{})
	if err != nil {
		t.Fatalf("chaos run failed despite supervision: %v\n%s", err, Report(res))
	}
	assertChaosResults(t, st, prod.steps, ref)
	total := 0
	for _, sr := range res.Stages {
		total += sr.Restarts
	}
	if total == 0 {
		t.Fatalf("plan injected no recoverable faults — chaos test exercised nothing\n%s", Report(res))
	}
	t.Logf("recovered through %d supervised restarts", total)
}

// TestChaosWriterCrashFailsCleanly schedules a deterministic writer crash
// and demands a clean, prompt, attributed failure: the producer stage
// reports the crash, downstream stages see a failed stream (not a
// truncated EOF), nothing is retried into the dead stream, and no stage
// hangs.
func TestChaosWriterCrashFailsCleanly(t *testing.T) {
	prod := &chaosProducer{rows: 24, cols: 3, steps: 6, seed: 20250805}
	spec, _, _ := chaosSpec(t, prod)
	spec.Stages[0].Procs = 1 // crash point names rank 0; keep the group that size
	tr := fault.New(transport(), fault.Plan{
		Seed:  7,
		Crash: &fault.CrashPoint{Stream: "chaos0.fp", Rank: 0, Step: 2},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	spec.Restart = RestartPolicy{MaxRestarts: 3, Backoff: time.Millisecond, StepTimeout: 5 * time.Second}
	res, err := Run(ctx, tr, spec, Options{})
	if err == nil {
		t.Fatal("workflow survived a scheduled writer crash")
	}
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("root cause is not the crash: %v", err)
	}
	if !errors.Is(res.Stages[0].Err, fault.ErrCrashed) {
		t.Fatalf("producer stage error = %v, want ErrCrashed", res.Stages[0].Err)
	}
	if res.Stages[0].Restarts != 0 {
		t.Fatalf("a crash was retried %d times; crashes are terminal", res.Stages[0].Restarts)
	}
	// Downstream must observe a failed stream or cancellation fallout —
	// never hang, never report clean success.
	for i, sr := range res.Stages[1:] {
		if sr.Err == nil {
			t.Fatalf("downstream stage %d reported success after upstream crash", i+1)
		}
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("crash did not unwind promptly: %s", elapsed)
	}
}

// TestChaosLaunchOrderPermutationsOverTCP permutes the launch order of
// the pipeline over a real TCP broker while injecting connect-time
// failures into every attach. FlexPath's rendezvous already makes launch
// order irrelevant; this demands it stays irrelevant when attaches
// themselves fail transiently and stages recover via supervised restart.
func TestChaosLaunchOrderPermutationsOverTCP(t *testing.T) {
	perms := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	for pi, perm := range perms {
		pi, perm := pi, perm
		t.Run(fmt.Sprintf("perm%d", pi), func(t *testing.T) {
			srv, err := flexpath.NewServer(flexpath.NewBroker(), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			client := flexpath.Dial(srv.Addr())
			defer client.Close()

			prod := &chaosProducer{rows: 12, cols: 2, steps: 3, seed: 777}
			base, st, ref := chaosSpec(t, prod)
			spec := Spec{Name: fmt.Sprintf("perm%d", pi)}
			for _, idx := range perm {
				spec.Stages = append(spec.Stages, base.Stages[idx])
			}

			tr := fault.New(client, fault.Plan{
				Seed:    int64(100 + pi),
				ErrRate: 0.4,
				Ops:     map[fault.Op]bool{fault.OpAttachWriter: true, fault.OpAttachReader: true},
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			spec.Restart = RestartPolicy{MaxRestarts: 20, Backoff: time.Millisecond, StepTimeout: 5 * time.Second}
			res, err := Run(ctx, tr, spec, Options{})
			if err != nil {
				t.Fatalf("permutation %v failed: %v\n%s", perm, err, Report(res))
			}
			assertChaosResults(t, st, prod.steps, ref)
		})
	}
}
