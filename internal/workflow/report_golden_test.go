package workflow

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sb"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update so intentional format changes are one command away:
//
//	go test ./internal/workflow/ -run TestReportGolden -update
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// goldenMetrics builds a collector with fixed, deterministic samples.
func goldenMetrics(name string, ranks, steps int) *sb.Metrics {
	m := sb.NewMetrics(name)
	for s := 0; s < steps; s++ {
		for r := 0; r < ranks; r++ {
			m.RecordStep(s, time.Duration(s+1)*time.Millisecond, 4096, 2048)
		}
	}
	return m
}

func TestReportGoldenSuccess(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("fabric.steps_published").Add(6)
	reg.Counter("fabric.steps_retired").Add(6)
	reg.Counter("fabric.bytes_published").Add(3 << 20)
	reg.Counter("fabric.bytes_fetched").Add(3 << 20)
	res := &Result{
		Spec:     Spec{Name: "golden-ok"},
		Elapsed:  250 * time.Millisecond,
		Registry: reg,
		Stages: []StageResult{
			{Stage: Stage{Component: "lammps", Procs: 2}, Metrics: goldenMetrics("lammps", 2, 3)},
			{Stage: Stage{Component: "magnitude", Procs: 2}, Metrics: goldenMetrics("magnitude", 2, 3)},
			{Stage: Stage{Component: "histogram", Procs: 1}, Metrics: goldenMetrics("histogram", 1, 3)},
		},
	}
	checkGolden(t, "report_success.golden", Report(res))
}

func TestReportGoldenRestart(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("fabric.steps_published").Add(4)
	reg.Counter("fabric.steps_retired").Add(4)
	reg.Counter("fabric.bytes_published").Add(1 << 20)
	reg.Counter("fabric.bytes_fetched").Add(1 << 20)
	reg.Counter("workflow.restarts").Add(3)
	reg.Counter("fabric.heartbeat_misses").Add(1)
	res := &Result{
		Spec:     Spec{Name: "golden-recovered"},
		Elapsed:  2 * time.Second,
		Registry: reg,
		Stages: []StageResult{
			{Stage: Stage{Component: "lammps", Procs: 1}, Metrics: goldenMetrics("lammps", 1, 2)},
			{Stage: Stage{Component: "magnitude", Procs: 1}, Metrics: goldenMetrics("magnitude", 1, 2), Restarts: 3},
		},
	}
	checkGolden(t, "report_restart.golden", Report(res))
}

func TestReportGoldenFailed(t *testing.T) {
	res := &Result{
		Spec:    Spec{Name: "golden-failed"},
		Elapsed: 40 * time.Millisecond,
		Stages: []StageResult{
			{Stage: Stage{Component: "lammps", Procs: 2}, Metrics: goldenMetrics("lammps", 2, 1)},
			{Stage: Stage{Component: "magnitude", Procs: 1}, Restarts: 2,
				Err: errors.New("magnitude: step 1: fault: injected writer crash")},
			{Stage: Stage{Component: "histogram", Procs: 1}, Metrics: sb.NewMetrics("histogram")},
		},
	}
	checkGolden(t, "report_failed.golden", Report(res))
}
