package workflow_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/launch"
	"repro/internal/workflow"

	_ "repro/internal/sim/gromacs"
	_ "repro/internal/sim/gtcp"
	_ "repro/internal/sim/lammps"
)

// TestPlanGolden snapshots `sbrun -explain` for the launch scripts
// shipped under examples/, parsed as sbrun parses them. Explain is a
// user-facing contract — these goldens pin its exact rendering; refresh
// deliberately with:
//
//	go test ./internal/workflow/ -run TestPlanGolden -update
func TestPlanGolden(t *testing.T) {
	cases := []struct {
		golden, name, script string
		// directives are prepended to the script.
		directives string
	}{
		// The paper's Fig. 8 script. Fusable chain: select+magnitude at
		// 2 ranks.
		{golden: "plan_lammps_crack.golden", name: "lammps-crack", script: "lammps-crack.sb"},
		// Fig. 6's pressure pipeline. Fusable chain:
		// select+dim-reduce+dim-reduce at 2 ranks.
		{golden: "plan_gtcp_toroid.golden", name: "gtcp-toroid", script: "gtcp-toroid.sb"},
		// The in situ phase: the fork stage fans gmx.fp out to two
		// streams, so nothing fuses here — the plan must say so rather
		// than stay silent.
		{golden: "plan_gromacs_spread.golden", name: "gromacs-live", script: "gromacs-spread.sb"},
		// The post hoc phase: file-reader is no map kernel, and the
		// magnitude→histogram edge changes rank count, so nothing fuses.
		{golden: "plan_gromacs_spread_posthoc.golden", name: "gromacs-posthoc", script: "gromacs-spread-posthoc.sb"},
		// The extension components as a DAG: a fork, a two-input concat
		// and a chain of map kernels.
		{golden: "plan_dag_pipeline.golden", name: "dag-pipeline", script: "dag-pipeline.sb"},
		// The Fig. 8 workflow again, but multi-process on one node:
		// transport auto against a broker socket path (resolves shm),
		// with the dump stream explicitly pinned to uds and the fusion
		// pass on — the plan must show the per-edge resolution,
		// including the edge fusion elides from the fabric entirely.
		{golden: "plan_lammps_crack_auto.golden", name: "lammps-crack-auto", script: "lammps-crack.sb",
			directives: "transport auto /run/sb/broker.sock\n" +
				"transport uds /run/sb/broker.sock stream=dump.custom.fp\n" +
				"fuse\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			script, err := os.ReadFile(filepath.Join("..", "..", "examples", tc.script))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := launch.Parse(tc.name, tc.directives+string(script))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := workflow.BuildPlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			workflow.CheckGolden(t, tc.golden, plan.Explain())
		})
	}
}
