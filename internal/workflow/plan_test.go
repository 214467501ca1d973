package workflow

import (
	"strings"
	"testing"

	"repro/internal/sb"
)

// crackSpec is the Fig. 8 LAMMPS pipeline in launch order (sink first),
// the spec shape sbrun sees. Select and magnitude share a rank count so
// their edge is fusable.
func crackSpec() Spec {
	return Spec{
		Name: "crack",
		Stages: []Stage{
			{Component: "histogram", Args: []string{"velos.fp", "velocities", "8"}, Procs: 1},
			{Component: "magnitude", Args: []string{"sel.fp", "lmpsel", "velos.fp", "velocities"}, Procs: 2},
			{Component: "select", Args: []string{"dump.fp", "atoms", "1", "sel.fp", "lmpsel", "vx", "vy", "vz"}, Procs: 2},
			{Component: "lammps", Args: []string{"dump.fp", "atoms", "100", "2"}, Procs: 2},
		},
	}
}

func buildT(t *testing.T, spec Spec) *Plan {
	t.Helper()
	plan, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestBuildPlanEdges(t *testing.T) {
	plan := buildT(t, crackSpec())
	if len(plan.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(plan.Nodes))
	}
	// Edges are emitted in (producer index, consumer index) order, with
	// the array the producer declares on the stream.
	want := []PlanEdge{
		{Stream: "velos.fp", Array: "velocities", From: 1, To: 0},
		{Stream: "sel.fp", Array: "lmpsel", From: 2, To: 1},
		{Stream: "dump.fp", Array: "atoms", From: 3, To: 2},
	}
	if len(plan.Edges) != len(want) {
		t.Fatalf("edges = %+v", plan.Edges)
	}
	for i, e := range want {
		if plan.Edges[i] != e {
			t.Fatalf("edge %d = %+v, want %+v", i, plan.Edges[i], e)
		}
	}
	if issues := plan.Issues(); len(issues) != 0 {
		t.Fatalf("clean plan flagged: %v", issues)
	}
}

func TestBuildPlanRejectsUnknownComponent(t *testing.T) {
	_, err := BuildPlan(Spec{Name: "bad", Stages: []Stage{
		{Component: "no-such-thing", Procs: 1},
	}})
	if err == nil {
		t.Fatal("unknown component planned")
	}
}

func TestPlanCycleDetection(t *testing.T) {
	plan := buildT(t, Spec{
		Name: "loop",
		Stages: []Stage{
			{Component: "magnitude", Args: []string{"a.fp", "x", "b.fp", "y"}, Procs: 1},
			{Component: "magnitude", Args: []string{"b.fp", "y", "a.fp", "x"}, Procs: 1},
		},
	})
	issues := plan.Issues()
	found := false
	for _, issue := range issues {
		if issue.Severity == "error" && strings.Contains(issue.Message, "dataflow cycle") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cycle not reported: %v", issues)
	}
}

func TestPlanRankMismatchWarning(t *testing.T) {
	spec := crackSpec()
	spec.Stages[1].Procs = 4 // magnitude outnumbers select's 2 producers
	issues := buildT(t, spec).Issues()
	found := false
	for _, issue := range issues {
		if issue.Severity == "warning" && strings.Contains(issue.Message, "surplus ranks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("rank mismatch not reported: %v", issues)
	}
}

func TestFusionGroups(t *testing.T) {
	plan := buildT(t, crackSpec())
	groups := plan.FusionGroups()
	if len(groups) != 1 {
		t.Fatalf("groups = %+v", groups)
	}
	g := groups[0]
	// The chain runs producer-first: select (stage 2) feeds magnitude
	// (stage 1); lammps and histogram are not fusable endpoints.
	if len(g.Stages) != 2 || g.Stages[0] != 2 || g.Stages[1] != 1 {
		t.Fatalf("group stages = %v", g.Stages)
	}
	if strings.Join(g.Parts, "+") != "select+magnitude" {
		t.Fatalf("group parts = %v", g.Parts)
	}
	if g.Procs != 2 {
		t.Fatalf("group procs = %d", g.Procs)
	}
	if len(g.Elided) != 1 || g.Elided[0] != "sel.fp" {
		t.Fatalf("group elided = %v", g.Elided)
	}
}

func TestFusionBlockers(t *testing.T) {
	t.Run("procs mismatch", func(t *testing.T) {
		spec := crackSpec()
		spec.Stages[1].Procs = 1 // magnitude no longer matches select's 2
		if groups := buildT(t, spec).FusionGroups(); len(groups) != 0 {
			t.Fatalf("mismatched rank counts fused: %+v", groups)
		}
	})
	t.Run("fan-out stream", func(t *testing.T) {
		spec := crackSpec()
		// A second subscriber on sel.fp makes the edge no longer 1:1.
		spec.Stages = append(spec.Stages, Stage{
			Component: "stats", Args: []string{"sel.fp", "lmpsel"}, Procs: 1,
		})
		if groups := buildT(t, spec).FusionGroups(); len(groups) != 0 {
			t.Fatalf("fan-out stream fused: %+v", groups)
		}
	})
	t.Run("non-fusable consumer", func(t *testing.T) {
		// AllPairs re-reads the shared step via its Reader, so it opted
		// out of the kernel seam and must never fuse.
		plan := buildT(t, Spec{
			Name: "ap",
			Stages: []Stage{
				{Component: "lammps", Args: []string{"dump.fp", "atoms", "100", "2"}, Procs: 1},
				{Component: "magnitude", Args: []string{"dump.fp", "atoms", "m.fp", "m"}, Procs: 1},
				{Component: "all-pairs", Args: []string{"m.fp", "m", "d.fp", "dist"}, Procs: 1},
				{Component: "histogram", Args: []string{"d.fp", "dist", "4"}, Procs: 1},
			},
		})
		for _, g := range plan.FusionGroups() {
			for _, part := range g.Parts {
				if part == "all-pairs" {
					t.Fatalf("all-pairs fused: %+v", g)
				}
			}
		}
	})
}

func TestPlanFuseSpec(t *testing.T) {
	plan := buildT(t, crackSpec())
	fused, err := plan.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Groups) != 1 || len(fused.Spec.Stages) != 3 {
		t.Fatalf("fused spec = %+v", fused.Spec.Stages)
	}
	// Order preserved: histogram, then the fused stage where select (the
	// chain head by stage order: magnitude slot) sat, then lammps.
	names := make([]string, len(fused.Spec.Stages))
	for i, st := range fused.Spec.Stages {
		names[i] = st.Component
	}
	if got := strings.Join(names, ","); got != "histogram,select+magnitude,lammps" {
		t.Fatalf("fused stage order = %s", got)
	}
	st := fused.Spec.Stages[1]
	if st.Procs != 2 {
		t.Fatalf("fused stage procs = %d", st.Procs)
	}
	if _, ok := st.Instance.(*sb.Fused); !ok {
		t.Fatalf("fused stage instance = %T", st.Instance)
	}
	if g := fused.Groups[0]; strings.Join(g.Elided, ",") != "sel.fp" {
		t.Fatalf("interior streams = %v", g.Elided)
	}
	// The fused spec must itself plan cleanly: the elided stream is gone,
	// the surviving edges reconnect through the fused stage.
	replan := buildT(t, fused.Spec)
	if issues := replan.Issues(); len(issues) != 0 {
		t.Fatalf("fused spec flagged: %v", issues)
	}
	for _, e := range replan.Edges {
		if e.Stream == "sel.fp" {
			t.Fatalf("elided stream survived: %+v", replan.Edges)
		}
	}
}

func TestPlanFuseNoEligibleChains(t *testing.T) {
	spec := crackSpec()
	spec.Stages[1].Procs = 1
	plan := buildT(t, spec)
	fused, err := plan.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Groups) != 0 {
		t.Fatalf("groups = %+v", fused.Groups)
	}
	if len(fused.Spec.Stages) != len(spec.Stages) {
		t.Fatalf("ineligible spec rewritten: %+v", fused.Spec.Stages)
	}
}

func TestPlanExplainDeterministic(t *testing.T) {
	spec := crackSpec()
	a := buildT(t, spec).Explain()
	b := buildT(t, spec).Explain()
	if a != b {
		t.Fatalf("Explain is not deterministic:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{
		"plan crack: 4 stages, transport inproc",
		"stages:", "edges:", "fusion:", "lint:",
		"fuse stages 2,1 as select+magnitude procs=2 (elides sel.fp)",
		"(clean)",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("Explain missing %q:\n%s", want, a)
		}
	}
}

func TestStageSubset(t *testing.T) {
	plan := buildT(t, crackSpec())
	// By component name.
	sub, err := plan.StageSubset("histogram")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Node.Index != 0 || len(sub.Inputs) != 1 || sub.Inputs[0].Stream != "velos.fp" {
		t.Fatalf("histogram subset = node %d inputs %v", sub.Node.Index, sub.Inputs)
	}
	if len(sub.Outputs) != 0 {
		t.Fatalf("histogram subset outputs = %v, want none (sink)", sub.Outputs)
	}
	// By index: magnitude has both sides of the cut.
	sub, err = plan.StageSubset("1")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Node.Component.Name() != "magnitude" {
		t.Fatalf("subset 1 = %s", sub.Node.Component.Name())
	}
	if len(sub.Inputs) != 1 || sub.Inputs[0].Stream != "sel.fp" ||
		len(sub.Outputs) != 1 || sub.Outputs[0].Stream != "velos.fp" {
		t.Fatalf("magnitude subset cut = in %v out %v", sub.Inputs, sub.Outputs)
	}
	// Unknown name lists the plan's components.
	if _, err := plan.StageSubset("ghost"); err == nil || !strings.Contains(err.Error(), "histogram") {
		t.Fatalf("unknown stage error = %v", err)
	}
	// Out-of-range index.
	if _, err := plan.StageSubset("9"); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	// Ambiguous name points at the indices.
	dup := crackSpec()
	dup.Stages[1].Component = "histogram"
	dup.Stages[1].Args = []string{"velos.fp", "velocities", "8"}
	dupPlan := buildT(t, dup)
	if _, err := dupPlan.StageSubset("histogram"); err == nil || !strings.Contains(err.Error(), "0,1") {
		t.Fatalf("ambiguous stage error = %v", err)
	}
}

func TestExplainShowsReplayDir(t *testing.T) {
	spec := crackSpec()
	spec.ReplayDir = "/mnt/scratch/rec"
	plan := buildT(t, spec)
	if !strings.Contains(plan.Explain(), "replay: recorded log /mnt/scratch/rec\n") {
		t.Fatalf("Explain missing replay line:\n%s", plan.Explain())
	}
	if strings.Contains(buildT(t, crackSpec()).Explain(), "replay:") {
		t.Fatal("Explain shows a replay line without ReplayDir")
	}
}
