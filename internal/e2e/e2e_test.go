// Package e2e tests the repository's binaries as real OS processes: an
// sbbroker serving the stream fabric over TCP, and one sbcomp process
// per workflow component — the closest this reproduction comes to the
// paper's deployment model of separately launched MPI executables
// rendezvousing through FlexPath.
package e2e

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles the commands once per test run.
func buildBinaries(t *testing.T) (broker, comp, run string) {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"sbbroker", "sbcomp", "sbrun"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "repro/cmd/"+name)
		cmd.Dir = repoRoot(t)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
	}
	return filepath.Join(dir, "sbbroker"), filepath.Join(dir, "sbcomp"), filepath.Join(dir, "sbrun")
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/e2e → repo root
}

// startBroker launches sbbroker on a free TCP port and returns its
// address. startBrokerOn (transport_matrix_test.go) is the flavor-aware
// generalization.
func startBroker(t *testing.T, bin string) string {
	t.Helper()
	addr := startBrokerOn(t, bin, "-addr", "127.0.0.1:0")
	if !strings.Contains(addr, ":") {
		t.Fatalf("could not parse broker address %q", addr)
	}
	return addr
}

func TestMultiProcessLAMMPSWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	brokerBin, compBin, _ := buildBinaries(t)
	addr := startBroker(t, brokerBin)

	outDir := t.TempDir()
	histPath := filepath.Join(outDir, "velocity_hist.txt")

	// The Fig. 8 workflow, one OS process per component, launched in
	// downstream-first order to also exercise launch-order independence
	// across process boundaries.
	stages := [][]string{
		{"-broker", addr, "-n", "1", "histogram", "velos.fp", "velocities", "8", histPath},
		{"-broker", addr, "-n", "2", "magnitude", "sel.fp", "lmpsel", "velos.fp", "velocities"},
		{"-broker", addr, "-n", "2", "select", "dump.fp", "atoms", "1", "sel.fp", "lmpsel", "vx", "vy", "vz"},
		{"-broker", addr, "-n", "2", "lammps", "dump.fp", "atoms", "2000", "3"},
	}
	procs := make([]*exec.Cmd, 0, len(stages))
	for _, args := range stages {
		cmd := exec.Command(compBin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
	}
	done := make(chan error, len(procs))
	for _, p := range procs {
		go func(p *exec.Cmd) { done <- p.Wait() }(p)
	}
	deadline := time.After(120 * time.Second)
	for range procs {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("component process failed: %v", err)
			}
		case <-deadline:
			for _, p := range procs {
				p.Process.Kill()
			}
			t.Fatal("multi-process workflow timed out")
		}
	}

	data, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for step := 0; step < 3; step++ {
		want := fmt.Sprintf("# step %d", step)
		if !strings.Contains(text, want) {
			t.Fatalf("histogram output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "n=2000") {
		t.Fatalf("histogram output lost particles:\n%s", text)
	}
}

func TestSbrunScriptAgainstRemoteBroker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	brokerBin, _, runBin := buildBinaries(t)
	addr := startBroker(t, brokerBin)

	dir := t.TempDir()
	histPath := filepath.Join(dir, "radii.txt")
	script := fmt.Sprintf(`
transport tcp %s
aprun -n 2 gromacs pos.fp xyz 1000 2 &
aprun -n 2 magnitude pos.fp xyz dist.fp radii &
aprun -n 1 histogram dist.fp radii 6 %s &
wait
`, addr, histPath)
	scriptPath := filepath.Join(dir, "wf.sh")
	if err := os.WriteFile(scriptPath, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(runBin, scriptPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sbrun failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "end-to-end") || !strings.Contains(string(out), "histogram") {
		t.Fatalf("sbrun output unexpected:\n%s", out)
	}
	data, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "n=1000") {
		t.Fatalf("histogram output wrong:\n%s", data)
	}
}

// TestSbrunExplainExitStatus: -explain prints the plan either way, and
// its exit status says whether sbrun would launch it — 1 when lint
// reports an error (a reader on a stream nobody writes), 0 when clean.
func TestSbrunExplainExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	_, _, runBin := buildBinaries(t)
	dir := t.TempDir()
	explain := func(name, script string) (string, int) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(runBin, "-explain", path).CombinedOutput()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return string(out), 0
		case errors.As(err, &exit):
			return string(out), exit.ExitCode()
		default:
			t.Fatalf("sbrun -explain %s: %v\n%s", name, err, out)
			return "", -1
		}
	}

	clean := `
supervise restarts=2 step-timeout=5s
aprun -n 1 gromacs pos.fp xyz 100 2 &
aprun -n 1 magnitude pos.fp xyz dist.fp radii &
aprun -n 1 histogram dist.fp radii 4 &
wait
`
	out, code := explain("clean.sh", clean)
	if code != 0 || !strings.Contains(out, "lint:\n  (clean)") ||
		!strings.Contains(out, "supervise: restarts=2 backoff=50ms step-timeout=5s") {
		t.Fatalf("clean script: exit %d\n%s", code, out)
	}
	miswired := strings.Replace(clean, "histogram dist.fp", "histogram dsit.fp", 1)
	out, code = explain("miswired.sh", miswired)
	if code != 1 || !strings.Contains(out, "error:") {
		t.Fatalf("mis-wired script: exit %d, want 1\n%s", code, out)
	}
}
