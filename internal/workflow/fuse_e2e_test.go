package workflow

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/components"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/tracetest"

	_ "repro/internal/sim/gtcp"
	_ "repro/internal/sim/lammps"
)

// fuseSpecT applies the fusion pass to a spec and requires it to fuse
// at least one chain.
func fuseSpecT(t *testing.T, spec Spec) *FusedSpec {
	t.Helper()
	plan, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := plan.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Groups) == 0 {
		t.Fatal("no fusable chains in spec")
	}
	return fused
}

func newHistT(t *testing.T, args ...string) *components.Histogram {
	t.Helper()
	h, err := components.NewHistogram(args)
	if err != nil {
		t.Fatal(err)
	}
	return h.(*components.Histogram)
}

// TestFusionEquivalenceLAMMPS is the fusion pass's correctness contract:
// the Fig. 8 pipeline run componentized, run fused (select+magnitude
// collapsed into one stage, sel.fp never touching the broker) and run
// as the hand-fused all-in-one component (Table II's comparator) must
// produce byte-identical histograms — the sims are deterministically
// seeded, so any divergence is a fusion bug, not noise.
func TestFusionEquivalenceLAMMPS(t *testing.T) {
	histA := newHistT(t, "velos.fp", "velocities", "16")
	unfused := lammpsWorkflowSpec(histA)
	runT(t, unfused)

	c, err := components.NewAIO([]string{"dump.custom.fp", "atoms", "1", "16", "-", "vx", "vy", "vz"})
	if err != nil {
		t.Fatal(err)
	}
	aio := c.(*components.AIO)
	runT(t, Spec{Name: "lammps-aio", Stages: []Stage{
		{Instance: aio, Procs: 2},
		unfused.Stages[len(unfused.Stages)-1], // the lammps stage
	}})
	if a, got := histA.Results(), aio.Results(); len(a) == 0 || !reflect.DeepEqual(a, got) {
		t.Fatalf("all-in-one output diverged:\nunfused: %+v\naio:     %+v", a, got)
	}

	histB := newHistT(t, "velos.fp", "velocities", "16")
	fused := fuseSpecT(t, lammpsWorkflowSpec(histB))
	if strings.Join(fused.Groups[0].Parts, "+") != "select+magnitude" {
		t.Fatalf("fused groups = %+v", fused.Groups)
	}
	res := runT(t, fused.Spec)

	a, b := histA.Results(), histB.Results()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("fused output diverged:\nunfused: %+v\nfused:   %+v", a, b)
	}

	// Per-component metrics survive fusion: each part keeps its own
	// comp.<name> identity with one sample per timestep.
	for _, name := range []string{"select", "magnitude"} {
		m := res.Metrics(name)
		if m == nil {
			t.Fatalf("fused run lost metrics for %q", name)
		}
		if steps := m.Steps(); len(steps) != len(a) {
			t.Fatalf("%s recorded %d steps, want %d", name, len(steps), len(a))
		}
	}
	// The report names the fused stage and its parts.
	report := Report(res)
	for _, want := range []string{"select+magnitude", "(fused)"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestFusionEquivalenceGTCP fuses a three-part chain
// (select+dim-reduce+dim-reduce) whose dr1→dr2 handoff is partition-
// misaligned at 2 ranks (dim-reduce reserves the axis the previous
// stage partitioned), so the interior Direct exchange path — not just
// the in-place fast path — is what's proven byte-identical here.
func TestFusionEquivalenceGTCP(t *testing.T) {
	gtcpSpec := func(hist *components.Histogram) Spec {
		return Spec{
			Name: "gtcp-pressure",
			Stages: []Stage{
				{Component: "gtcp", Args: []string{"gtcp.fp", "grid", "8", "32", "3"}, Procs: 2},
				{Component: "select", Args: []string{"gtcp.fp", "grid", "2", "psel.fp", "press", "pressure_perp"}, Procs: 2},
				{Component: "dim-reduce", Args: []string{"psel.fp", "press", "2", "1", "dr1.fp", "press2"}, Procs: 2},
				{Component: "dim-reduce", Args: []string{"dr1.fp", "press2", "0", "1", "flat.fp", "pressures"}, Procs: 2},
				{Instance: hist, Procs: 1},
			},
		}
	}
	histA := newHistT(t, "flat.fp", "pressures", "12")
	runT(t, gtcpSpec(histA))

	histB := newHistT(t, "flat.fp", "pressures", "12")
	fused := fuseSpecT(t, gtcpSpec(histB))
	g := fused.Groups[0]
	if strings.Join(g.Parts, "+") != "select+dim-reduce+dim-reduce" {
		t.Fatalf("fused groups = %+v", fused.Groups)
	}
	if len(g.Elided) != 2 {
		t.Fatalf("elided streams = %v", g.Elided)
	}
	runT(t, fused.Spec)

	a, b := histA.Results(), histB.Results()
	if len(a) != 3 || !reflect.DeepEqual(a, b) {
		t.Fatalf("fused output diverged:\nunfused: %+v\nfused:   %+v", a, b)
	}
}

// TestFusionPreservesSpans proves observability survives fusion: the
// fused stage emits the same per-component stage.step and
// kernel.transform spans an unfused run would — one stage.step per
// (part, step, rank), each kernel.transform parented under its part's
// step span, attributed to the part's own stream.
func TestFusionPreservesSpans(t *testing.T) {
	const steps, procs = 4, 2
	hist := newHistT(t, "velos.fp", "velocities", "16")
	fused := fuseSpecT(t, lammpsWorkflowSpec(hist))

	tr := obs.NewTracer(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := Run(ctx, transport(), fused.Spec, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}

	spans := tracetest.FromTracer(tr)
	noteIs := func(name string) tracetest.Pred {
		return func(s obs.Span) bool { return s.Note == name }
	}
	for _, part := range []struct{ name, stream string }{
		{"select", "dump.custom.fp"},
		{"magnitude", "lmpselect.fp"},
	} {
		tracetest.ExpectCount(t, spans, steps*procs,
			tracetest.OfKind(obs.KindStageStep), noteIs(part.name), tracetest.OnStream(part.stream))
		tracetest.ExpectCount(t, spans, steps*procs,
			tracetest.OfKind(obs.KindKernelTransform), noteIs(part.name))
		n := tracetest.ExpectParented(t, spans,
			tracetest.And(tracetest.OfKind(obs.KindKernelTransform), noteIs(part.name)),
			tracetest.And(tracetest.OfKind(obs.KindStageStep), noteIs(part.name)))
		if n != steps*procs {
			t.Fatalf("%s: %d parented transforms, want %d", part.name, n, steps*procs)
		}
	}
	// The elided stream carries no broker traffic, but its component
	// spans above prove the stages still ran — fusion trades transport,
	// not visibility.
}

// TestFusedStageRestart injects reader-side faults into a workflow
// whose select+magnitude chain is fused and supervises it: the fused
// stage must restart like any other stage and still deliver every
// timestep exactly once downstream.
func TestFusedStageRestart(t *testing.T) {
	const steps = 8
	hist := newHistT(t, "velos.fp", "velocities", "8")
	spec := Spec{
		Name: "fused-faults",
		Stages: []Stage{
			{Instance: hist, Procs: 1},
			// Single-rank chain: restarting a multi-rank stage after one
			// rank sealed its writer slot is not restartable (see
			// trace_e2e_test.go), and fault injection makes that easy to hit.
			{Component: "magnitude", Args: []string{"sel.fp", "lmpsel", "velos.fp", "velocities"}, Procs: 1},
			{Component: "select", Args: []string{"dump.fp", "atoms", "1", "sel.fp", "lmpsel", "vx", "vy", "vz"}, Procs: 1},
			{Component: "lammps", Args: []string{"dump.fp", "atoms", "200", "8", "7"}, Procs: 2},
		},
	}
	fused := fuseSpecT(t, spec)
	if strings.Join(fused.Groups[0].Parts, "+") != "select+magnitude" {
		t.Fatalf("fused groups = %+v", fused.Groups)
	}

	ft := fault.New(transport(), fault.Plan{
		Seed:      20260805,
		ErrRate:   0.15,
		ResetRate: 0.05,
		Ops:       map[fault.Op]bool{fault.OpStepMeta: true, fault.OpFetchBlock: true},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fused.Spec.Restart = RestartPolicy{MaxRestarts: 100, Backoff: time.Millisecond, StepTimeout: 5 * time.Second}
	res, err := Run(ctx, ft, fused.Spec, Options{})
	if err != nil {
		t.Fatalf("fused run failed despite supervision: %v\n%s", err, Report(res))
	}
	totalRestarts := 0
	for _, sr := range res.Stages {
		totalRestarts += sr.Restarts
	}
	if totalRestarts == 0 {
		t.Fatal("fault plan injected no restarts; raise ErrRate or change the seed")
	}
	results := hist.Results()
	if len(results) != steps {
		t.Fatalf("histogram saw %d steps, want %d", len(results), steps)
	}
	for s, r := range results {
		if r.Total != 200 {
			t.Fatalf("step %d histogrammed %d particles, want 200", s, r.Total)
		}
	}
}
