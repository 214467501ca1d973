package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/components"
	"repro/internal/cost"
	"repro/internal/flexpath"
	"repro/internal/obs"
	"repro/internal/sb"
	"repro/internal/workflow"
)

// This file holds the ablation experiments for the design choices
// DESIGN.md §5 calls out. Each returns a small table of configurations
// against end-to-end time so the contribution of the mechanism can be
// read directly.

// AblationRow is one configuration's end-to-end time.
type AblationRow struct {
	Config  string
	Elapsed time.Duration
}

// FormatAblation renders any ablation's rows.
func FormatAblation(title string, rows []AblationRow) string {
	t := newTable("Configuration", "End2End Time (s)")
	for _, r := range rows {
		t.row(r.Config, Seconds(r.Elapsed))
	}
	return title + "\n" + t.String()
}

// lammpsPipelineSpec builds the Fig. 8 pipeline with every stage given
// the same writer queue depth.
func lammpsPipelineSpec(particles, steps, depth int) (workflow.Spec, error) {
	hist, err := components.NewHistogram([]string{"velos.fp", "velocities", "16"})
	if err != nil {
		return workflow.Spec{}, err
	}
	return workflow.Spec{
		Name: fmt.Sprintf("lammps-q%d", depth),
		Stages: []workflow.Stage{
			{Component: "lammps", Args: []string{"dump.fp", "atoms",
				fmt.Sprint(particles), fmt.Sprint(steps), "1"}, Procs: 4, QueueDepth: depth},
			{Component: "select", Args: []string{"dump.fp", "atoms", "1",
				"lmpselect.fp", "lmpsel", "vx", "vy", "vz"}, Procs: 2, QueueDepth: depth},
			{Component: "magnitude", Args: []string{"lmpselect.fp", "lmpsel",
				"velos.fp", "velocities"}, Procs: 2, QueueDepth: depth},
			{Instance: hist, Procs: 1},
		},
	}, nil
}

// RunQueueDepthAblation measures the writer-side buffering mechanism the
// paper credits for amortizing componentization overhead ("the overlap
// of computation and I/O provided by FlexPath amortizes this overhead",
// §V-C): queue depth 1 forces near-synchronous hand-offs; deeper queues
// overlap the producer's next step with downstream consumption.
func RunQueueDepthAblation(ctx context.Context, particles, steps int, depths []int) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(depths))
	for _, d := range depths {
		spec, err := lammpsPipelineSpec(particles, steps, d)
		if err != nil {
			return nil, err
		}
		res, err := workflow.Run(ctx, flexpath.NewInProc(), spec, workflow.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: queue depth %d: %w", d, err)
		}
		rows = append(rows, AblationRow{Config: fmt.Sprintf("queue depth %d", d), Elapsed: res.Elapsed})
	}
	return rows, nil
}

// RunFusionAblation measures pipeline granularity: the full 3-component
// SmartBlock pipeline, the same pipeline with the plan-fusion pass
// applied (select+magnitude collapsed automatically, components kept),
// and the hand-fused all-in-one component — the per-scale essence of
// Table II, with the optimizer as the middle ground.
func RunFusionAblation(ctx context.Context, particles, steps int) ([]AblationRow, error) {
	simArgs := []string{"dump.fp", "atoms", fmt.Sprint(particles), fmt.Sprint(steps), "1"}

	spec, err := lammpsPipelineSpec(particles, steps, 0)
	if err != nil {
		return nil, err
	}
	pipeRes, err := workflow.Run(ctx, flexpath.NewInProc(), spec, workflow.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: fusion pipeline: %w", err)
	}

	planSpec, err := lammpsPipelineSpec(particles, steps, 0)
	if err != nil {
		return nil, err
	}
	plan, err := workflow.BuildPlan(planSpec)
	if err != nil {
		return nil, fmt.Errorf("bench: fusion plan: %w", err)
	}
	fusedSpec, err := plan.Fuse()
	if err != nil {
		return nil, fmt.Errorf("bench: fusion plan: %w", err)
	}
	planRes, err := workflow.Run(ctx, flexpath.NewInProc(), fusedSpec.Spec, workflow.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: fusion plan-fused: %w", err)
	}

	aio, err := components.NewAIO([]string{"dump.fp", "atoms", "1", "16", "-", "vx", "vy", "vz"})
	if err != nil {
		return nil, err
	}
	fusedRes, err := workflow.Run(ctx, flexpath.NewInProc(), workflow.Spec{
		Name: "lammps-fused",
		Stages: []workflow.Stage{
			{Component: "lammps", Args: simArgs, Procs: 4},
			{Instance: aio, Procs: 2},
		},
	}, workflow.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: fusion fused: %w", err)
	}
	return []AblationRow{
		{Config: "3-component pipeline (select | magnitude | histogram)", Elapsed: pipeRes.Elapsed},
		{Config: "plan-fused pipeline (select+magnitude | histogram)", Elapsed: planRes.Elapsed},
		{Config: "fused all-in-one", Elapsed: fusedRes.Elapsed},
	}, nil
}

// RunPipelineOnce runs the Fig. 8 pipeline once, componentized or
// plan-fused, and returns the elapsed time plus the histogram results —
// the primitive behind the BenchmarkTable2Componentized /
// BenchmarkTable2Fused pair, whose allocs/op and time/op must favor
// the fused configuration while the histograms stay byte-identical.
func RunPipelineOnce(ctx context.Context, particles, steps int, fuse bool) (time.Duration, []components.StepHistogram, error) {
	spec, err := lammpsPipelineSpec(particles, steps, 0)
	if err != nil {
		return 0, nil, err
	}
	hist := spec.Stages[len(spec.Stages)-1].Instance.(*components.Histogram)
	if fuse {
		plan, err := workflow.BuildPlan(spec)
		if err != nil {
			return 0, nil, err
		}
		fused, err := plan.Fuse()
		if err != nil {
			return 0, nil, err
		}
		if len(fused.Groups) == 0 {
			return 0, nil, fmt.Errorf("bench: pipeline spec lost its fusable chain")
		}
		spec = fused.Spec
	}
	res, err := workflow.Run(ctx, flexpath.NewInProc(), spec, workflow.Options{})
	if err != nil {
		return 0, nil, err
	}
	return res.Elapsed, hist.Results(), nil
}

// RunPartitionPolicyAblation measures the partition-axis choice on the
// GTCP Select stage, whose input has a small leading dimension (slices)
// and a large middle one (gridpoints): splitting the first free axis can
// leave ranks idle when ranks > slices, while the longest-axis policy
// keeps them busy.
func RunPartitionPolicyAblation(ctx context.Context, slices, points, steps int) ([]AblationRow, error) {
	policies := []struct {
		name   string
		policy sb.PartitionPolicy
	}{
		{"partition first free axis", sb.PartitionFirstFree},
		{"partition longest free axis", sb.PartitionLongestFree},
	}
	rows := make([]AblationRow, 0, len(policies))
	for _, p := range policies {
		sel := &components.Select{
			InStream: "gtcp.fp", InArray: "grid",
			DimIndex:  2,
			OutStream: "psel.fp", OutArray: "press",
			Names:  []string{"pressure_perp"},
			Policy: p.policy,
		}
		hist, err := components.NewHistogram([]string{"flat.fp", "pressures", "16"})
		if err != nil {
			return nil, err
		}
		spec := workflow.Spec{
			Name: "gtcp-policy",
			Stages: []workflow.Stage{
				{Component: "gtcp", Args: []string{"gtcp.fp", "grid",
					fmt.Sprint(slices), fmt.Sprint(points), fmt.Sprint(steps)}, Procs: 2},
				{Instance: sel, Procs: 8}, // more select ranks than slices
				{Component: "dim-reduce", Args: []string{"psel.fp", "press", "2", "1", "dr1.fp", "press2"}, Procs: 2},
				{Component: "dim-reduce", Args: []string{"dr1.fp", "press2", "0", "1", "flat.fp", "pressures"}, Procs: 2},
				{Instance: hist, Procs: 1},
			},
		}
		res, err := workflow.Run(ctx, flexpath.NewInProc(), spec, workflow.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: partition policy %q: %w", p.name, err)
		}
		rows = append(rows, AblationRow{Config: p.name, Elapsed: res.Elapsed})
	}
	return rows, nil
}

// RunPlannerAblation measures what the cost planner's rewrite buys:
// the Fig. 8 pipeline as scripted (the paper's hand-chosen rank
// counts), against the same pipeline re-planned by the cost model from
// a profile measured on a live profiling run — rank knees, fusion, and
// all. Three runs total: profile, default, optimized.
func RunPlannerAblation(ctx context.Context, particles, steps int) ([]AblationRow, error) {
	// Profiling run: the scripted spec under a tracer/registry, spans
	// and counters distilled exactly as `sbrun -profile-out` does.
	profSpec, err := lammpsPipelineSpec(particles, steps, 0)
	if err != nil {
		return nil, err
	}
	tracer := obs.NewTracer(0)
	reg := obs.NewRegistry()
	broker := flexpath.NewBroker()
	broker.SetObserver(tracer, reg)
	if _, err := workflow.Run(ctx, flexpath.InProc{B: broker}, profSpec,
		workflow.Options{Tracer: tracer, Registry: reg}); err != nil {
		return nil, fmt.Errorf("bench: planner profiling run: %w", err)
	}
	prof := cost.FromSpans(tracer.Spans())
	snap := reg.Snapshot()
	prof.ApplyRegistry(snap)
	for _, st := range profSpec.Stages {
		name := st.Component
		if name == "" && st.Instance != nil {
			name = st.Instance.Name()
		}
		if prof.Stages[name] != nil {
			continue
		}
		if synth := cost.SynthesizeStage(name, st.Procs, snap); synth != nil {
			prof.Stages[name] = synth
		}
	}

	defSpec, err := lammpsPipelineSpec(particles, steps, 0)
	if err != nil {
		return nil, err
	}
	defRes, err := workflow.Run(ctx, flexpath.NewInProc(), defSpec, workflow.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: planner default run: %w", err)
	}

	optSpec, err := lammpsPipelineSpec(particles, steps, 0)
	if err != nil {
		return nil, err
	}
	plan, err := workflow.BuildPlan(optSpec)
	if err != nil {
		return nil, err
	}
	op, err := (workflow.CostPlanner{}).Optimize(plan, prof)
	if err != nil {
		return nil, fmt.Errorf("bench: planner optimize: %w", err)
	}
	spec := op.Plan.Spec
	if spec.Fuse {
		// Run does not apply the fusion pass itself; do what sbrun does.
		fused, err := op.Plan.Fuse()
		if err != nil {
			return nil, fmt.Errorf("bench: planner fuse: %w", err)
		}
		spec = fused.Spec
	}
	optRes, err := workflow.Run(ctx, flexpath.NewInProc(), spec, workflow.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: planner optimized run: %w", err)
	}
	return []AblationRow{
		{Config: "scripted plan (paper's rank counts)", Elapsed: defRes.Elapsed},
		{Config: "cost-planner optimized plan", Elapsed: optRes.Elapsed},
	}, nil
}

// RunTransportAblation runs the same GROMACS magnitude workflow over
// every stream fabric backend — in-process broker, TCP loopback broker,
// Unix-socket broker — quantifying the cost of crossing a socket per
// exchange and what the uds coalesced publish path buys back.
func RunTransportAblation(ctx context.Context, atoms, steps int) ([]AblationRow, error) {
	build := func() (workflow.Spec, error) {
		hist, err := components.NewHistogram([]string{"dist.fp", "radii", "16"})
		if err != nil {
			return workflow.Spec{}, err
		}
		return workflow.Spec{
			Name: "gromacs-transport",
			Stages: []workflow.Stage{
				{Component: "gromacs", Args: []string{"gmx.fp", "positions",
					fmt.Sprint(atoms), fmt.Sprint(steps)}, Procs: 2},
				{Component: "magnitude", Args: []string{"gmx.fp", "positions", "dist.fp", "radii"}, Procs: 2},
				{Instance: hist, Procs: 1},
			},
		}, nil
	}

	backends := []struct {
		config  string
		factory BackendFactory
	}{
		{"in-process channels", InprocBackend},
		{"TCP loopback", TCPLoopbackBackend},
		{"Unix socket (coalesced)", UDSBackend},
		{"shared-memory ring", ShmBackend},
	}
	rows := make([]AblationRow, 0, len(backends))
	for _, be := range backends {
		spec, err := build()
		if err != nil {
			return nil, err
		}
		transport, cleanup, err := be.factory()
		if err != nil {
			return nil, err
		}
		res, err := workflow.Run(ctx, transport, spec, workflow.Options{})
		cleanup()
		if err != nil {
			return nil, fmt.Errorf("bench: transport %s: %w", be.config, err)
		}
		rows = append(rows, AblationRow{Config: be.config, Elapsed: res.Elapsed})
	}
	return rows, nil
}
