package workflow

import (
	"strings"
	"testing"

	"repro/internal/sb"
)

func lintT(t *testing.T, spec Spec) []LintIssue {
	t.Helper()
	plan, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Issues()
}

func hasIssue(issues []LintIssue, severity, substr string) bool {
	for _, i := range issues {
		if i.Severity == severity && strings.Contains(i.Message, substr) {
			return true
		}
	}
	return false
}

func TestLintCleanWorkflow(t *testing.T) {
	spec := Spec{
		Name: "clean",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"dump.fp", "atoms", "100", "2"}, Procs: 1},
			{Component: "select", Args: []string{"dump.fp", "atoms", "1", "sel.fp", "s", "vx"}, Procs: 1},
			{Component: "magnitude", Args: []string{"sel.fp", "s", "mag.fp", "m"}, Procs: 1},
			{Component: "histogram", Args: []string{"mag.fp", "m", "4"}, Procs: 1},
		},
	}
	if issues := lintT(t, spec); len(issues) != 0 {
		t.Fatalf("clean workflow flagged: %v", issues)
	}
}

func TestLintDanglingSubscription(t *testing.T) {
	spec := Spec{
		Name: "typo",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"dump.fp", "atoms", "100", "2"}, Procs: 1},
			// Typo: subscribes to "dmup.fp".
			{Component: "histogram", Args: []string{"dmup.fp", "atoms", "4"}, Procs: 1},
		},
	}
	issues := lintT(t, spec)
	if !hasIssue(issues, "error", `"dmup.fp"`) {
		t.Fatalf("typo not caught: %v", issues)
	}
	// The orphaned producer stream is also flagged as a warning.
	if !hasIssue(issues, "warning", `"dump.fp"`) {
		t.Fatalf("orphan output not flagged: %v", issues)
	}
}

func TestLintDuplicatePublisher(t *testing.T) {
	spec := Spec{
		Name: "dup",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"same.fp", "atoms", "100", "2"}, Procs: 1},
			{Component: "gromacs", Args: []string{"same.fp", "pos", "100", "2"}, Procs: 1},
			{Component: "histogram", Args: []string{"same.fp", "atoms", "4"}, Procs: 1},
		},
	}
	issues := lintT(t, spec)
	if !hasIssue(issues, "error", "published by multiple stages") {
		t.Fatalf("duplicate publisher not caught: %v", issues)
	}
}

func TestLintSelfLoop(t *testing.T) {
	spec := Spec{
		Name: "loop",
		Stages: []Stage{
			{Component: "magnitude", Args: []string{"x.fp", "a", "x.fp", "b"}, Procs: 1},
		},
	}
	issues := lintT(t, spec)
	if !hasIssue(issues, "error", "consumes its own output") {
		t.Fatalf("self-loop not caught: %v", issues)
	}
}

func TestLintForkFanout(t *testing.T) {
	spec := Spec{
		Name: "dag",
		Stages: []Stage{
			{Component: "gromacs", Args: []string{"pos.fp", "xyz", "100", "2"}, Procs: 1},
			{Component: "fork", Args: []string{"pos.fp", "xyz", "a.fp", "b.fp"}, Procs: 1},
			{Component: "magnitude", Args: []string{"a.fp", "xyz", "ma.fp", "m"}, Procs: 1},
			{Component: "magnitude", Args: []string{"b.fp", "xyz", "mb.fp", "m"}, Procs: 1},
			{Component: "histogram", Args: []string{"ma.fp", "m", "4"}, Procs: 1},
			{Component: "histogram", Args: []string{"mb.fp", "m", "4"}, Procs: 1},
		},
	}
	if issues := lintT(t, spec); len(issues) != 0 {
		t.Fatalf("fork DAG flagged: %v", issues)
	}
}

// opaque is a component that does not declare its streams.
type opaque struct{}

func (opaque) Name() string          { return "opaque" }
func (opaque) Run(env *sb.Env) error { return nil }

func TestLintOpaqueStageSuppressesGlobalChecks(t *testing.T) {
	spec := Spec{
		Name: "opaque",
		Stages: []Stage{
			{Instance: opaque{}, Procs: 1},
			// This subscription may be served by the opaque stage; no error.
			{Component: "histogram", Args: []string{"mystery.fp", "x", "4"}, Procs: 1},
		},
	}
	issues := lintT(t, spec)
	if hasIssue(issues, "error", "mystery.fp") {
		t.Fatalf("opaque stage should suppress dangling-stream errors: %v", issues)
	}
}

func TestLintBadSpec(t *testing.T) {
	if _, err := BuildPlan(Spec{Name: "empty"}); err == nil {
		t.Fatal("empty spec linted")
	}
	if _, err := BuildPlan(Spec{Name: "x", Stages: []Stage{{Component: "nope", Procs: 1}}}); err == nil {
		t.Fatal("unknown component linted")
	}
}

func TestLintSimOnlyModeDeclaresNothing(t *testing.T) {
	spec := Spec{
		Name: "simonly",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"-", "atoms", "100", "2"}, Procs: 1},
		},
	}
	if issues := lintT(t, spec); len(issues) != 0 {
		t.Fatalf("sim-only workflow flagged: %v", issues)
	}
}
