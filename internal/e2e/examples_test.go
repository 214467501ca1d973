package e2e

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/components"
)

// TestExamplesRun runs every launch script under examples/ through one
// built sbrun and checks the files the scripts' endpoints write: a
// record for every step. The GROMACS post hoc phase re-analyses the in
// situ phase's recording in the same working directory, so its
// histograms must match the in situ ones step for step. The quickstart
// Go main runs too — the examples are part of the public API surface
// and must not rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	type scriptRun struct {
		script string
		out    string // the endpoint's results file, named in the script
		steps  int
	}
	cases := []struct {
		name  string
		runs  []scriptRun // in order, in one working directory
		check func(t *testing.T, dir string)
	}{
		{name: "lammps-crack", runs: []scriptRun{{"lammps-crack.sb", "velocity_hist.txt", 6}}},
		{name: "gtcp-toroid", runs: []scriptRun{{"gtcp-toroid.sb", "pressure_hist.txt", 4}}},
		{name: "gromacs-spread", runs: []scriptRun{
			{"gromacs-spread.sb", "spread_hist.txt", 6},
			{"gromacs-spread-posthoc.sb", "spread_hist_posthoc.txt", 6},
		}, check: func(t *testing.T, dir string) {
			live := readHistograms(t, filepath.Join(dir, "spread_hist.txt"))
			posthoc := readHistograms(t, filepath.Join(dir, "spread_hist_posthoc.txt"))
			for i := range live {
				a, b := live[i], posthoc[i]
				if a.Total != b.Total || a.Min != b.Min || a.Max != b.Max {
					t.Errorf("step %d: post hoc n=%d min=%g max=%g, in situ n=%d min=%g max=%g",
						i, b.Total, b.Min, b.Max, a.Total, a.Min, a.Max)
				}
			}
		}},
		// step-sample keeps every 2nd of the 6 simulated steps.
		{name: "dag-pipeline", runs: []scriptRun{{"dag-pipeline.sb", "joined_stats.txt", 3}}},
	}
	root := repoRoot(t)
	shipped, err := filepath.Glob(filepath.Join(root, "examples", "*.sb"))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, c := range cases {
		for _, r := range c.runs {
			listed = append(listed, r.script)
		}
	}
	for _, path := range shipped {
		if !slices.Contains(listed, filepath.Base(path)) {
			t.Errorf("examples/%s is not run by this test", filepath.Base(path))
		}
	}

	_, _, runBin := buildBinaries(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			work := t.TempDir()
			for _, r := range c.runs {
				out := runExample(t, work, runBin, filepath.Join(root, "examples", r.script))
				got := recordedSteps(t, filepath.Join(work, r.out))
				want := make([]int, r.steps)
				for i := range want {
					want[i] = i
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %s holds steps %v, want %v\n%s", r.script, r.out, got, want, out)
				}
			}
			if c.check != nil {
				c.check(t, work)
			}
		})
	}

	t.Run("quickstart", func(t *testing.T) {
		bin := filepath.Join(t.TempDir(), "quickstart")
		build := exec.Command("go", "build", "-o", bin, "repro/examples/quickstart")
		build.Dir = root
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building quickstart: %v\n%s", err, msg)
		}
		out := runExample(t, t.TempDir(), bin)
		if marker := "distribution of |x| at step 3"; !strings.Contains(out, marker) {
			t.Fatalf("quickstart output missing %q:\n%s", marker, out)
		}
	})
}

// runExample runs one command in dir under a deadline, failing the test
// on a non-zero exit, and returns its combined output.
func runExample(t *testing.T, dir, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// stepRecord matches the first line of one step's record in a histogram
// ("# step N ...") or stats ("step N ...") results file.
var stepRecord = regexp.MustCompile(`^(?:# )?step (\d+)\s`)

// recordedSteps returns the step numbers of a results file's records,
// in file order.
func recordedSteps(t *testing.T, path string) []int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var steps []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := stepRecord.FindStringSubmatch(sc.Text()); m != nil {
			n, _ := strconv.Atoi(m[1])
			steps = append(steps, n)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return steps
}

func readHistograms(t *testing.T, path string) []components.StepHistogram {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hs, err := components.ReadHistogramText(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return hs
}
