package replay_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flexpath"
	"repro/internal/replay"
	"repro/internal/replay/replaytest"
	"repro/internal/workflow"
)

// runCrackLive runs the crack pipeline live over an in-process broker
// with the histogram writing its analytics to outPath.
func runCrackLive(t *testing.T, spec workflow.Spec, outPath string) {
	t.Helper()
	hist := -1
	for i, st := range spec.Stages {
		if st.Component == "histogram" {
			hist = i
		}
	}
	if hist < 0 {
		t.Fatal("spec has no histogram stage")
	}
	spec.Stages[hist].Args = append(append([]string(nil), spec.Stages[hist].Args...), outPath)
	transport := flexpath.NewInProc()
	res, err := workflow.Run(replaytest.Ctx(t), transport, spec, workflow.Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("live run failed: %v\n%s", err, workflow.Report(res))
	}
}

// TestOptimizeEndToEnd is the full profile -> optimize -> re-run loop
// the `make optimize` gate drives: record the crack run, distill a cost
// profile from an offline replay of its analysis stages, let the cost
// planner rewrite the plan, and prove the optimized plan is (a) not a
// blind scale-to-max and (b) produces byte-identical analytics output
// when run live.
func TestOptimizeEndToEnd(t *testing.T) {
	dir := recordCrack(t)
	stages := crackStages()

	// Profile the replayable analysis stages offline; lammps is the
	// recording's producer and stays unprofiled (the planner must keep it).
	prof, _, err := replay.Profile(replaytest.Ctx(t),
		replay.Config{LogDir: dir, Logf: t.Logf}, stages[0], stages[1])
	if err != nil {
		t.Fatal(err)
	}
	if prof.Stages["magnitude"] == nil || prof.Stages["histogram"] == nil {
		t.Fatalf("profile missing stages, has %v", prof.StageNames())
	}

	spec := workflow.Spec{Name: "crack-live", Stages: crackStages()}
	plan, err := workflow.BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	op, err := (workflow.CostPlanner{}).Optimize(plan, prof)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("optimizer decisions:\n%s", op.Plan.ExplainOptimized(op))

	// The knee must be a measured choice, not the MaxProcs ceiling: the
	// crack kernels are microseconds per step, so scaling wide only adds
	// per-rank overhead.
	for _, st := range op.Plan.Spec.Stages {
		if st.Component == "magnitude" && st.Procs >= 8 {
			t.Errorf("magnitude scaled to ceiling: procs = %d (MaxProcs default %d)", st.Procs, 8)
		}
		if st.Component == "lammps" && st.Procs != 2 {
			t.Errorf("unprofiled lammps rewritten: procs = %d, want kept 2", st.Procs)
		}
	}
	if len(op.Decisions) == 0 {
		t.Fatal("optimizer recorded no decisions")
	}

	// Byte-identical analytics: the default plan and the optimized plan
	// must produce the same histogram text when run live.
	outDefault := filepath.Join(t.TempDir(), "hist_default.txt")
	outOptimized := filepath.Join(t.TempDir(), "hist_optimized.txt")
	runCrackLive(t, spec, outDefault)
	runCrackLive(t, op.Plan.Spec, outOptimized)
	want, err := os.ReadFile(outDefault)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("default run wrote an empty histogram")
	}
	if string(got) != string(want) {
		t.Errorf("optimized run's analytics differ from default:\n--- default ---\n%s--- optimized ---\n%s", want, got)
	}
}
