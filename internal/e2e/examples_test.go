package e2e

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds and runs every example main, checking exit
// status and a content marker in its output — the examples are part of
// the public API surface and must not rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	cases := []struct {
		pkg    string
		marker string
	}{
		{"quickstart", "distribution of |x| at step 3"},
		{"lammps-crack", "velocity_hist.txt"},
		{"gtcp-toroid", "perpendicular pressure"},
		{"gromacs-spread", "replayed analysis matches the in situ analysis step for step: true"},
		{"dag-pipeline", "per-step statistics"},
	}
	root := repoRoot(t)
	binDir := t.TempDir()
	for _, c := range cases {
		c := c
		t.Run(c.pkg, func(t *testing.T) {
			bin := filepath.Join(binDir, c.pkg)
			build := exec.Command("go", "build", "-o", bin, "repro/examples/"+c.pkg)
			build.Dir = root
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("building example %s: %v\n%s", c.pkg, err, out)
			}
			cmd := exec.Command(bin)
			cmd.Dir = t.TempDir() // examples may write output files
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(120 * time.Second):
				cmd.Process.Kill()
				t.Fatalf("example %s timed out", c.pkg)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.pkg, err, out)
			}
			if !strings.Contains(string(out), c.marker) {
				t.Fatalf("example %s output missing %q:\n%s", c.pkg, c.marker, out)
			}
		})
	}
}
