package workflow

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/components"
	"repro/internal/sb"
)

func TestReportRendersStages(t *testing.T) {
	m := sb.NewMetrics("select")
	m.RecordStep(0, 2*time.Millisecond, 4096, 2048)
	m.RecordStep(0, 4*time.Millisecond, 4096, 2048)
	m.RecordStep(1, 2*time.Millisecond, 1<<21, 1<<20)
	res := &Result{
		Spec:    Spec{Name: "demo"},
		Elapsed: 123 * time.Millisecond,
		Stages: []StageResult{
			{Stage: Stage{Component: "select", Procs: 2}, Metrics: m},
			{Stage: Stage{Component: "boom", Procs: 1}, Err: errors.New("kaput")},
			{Stage: Stage{Component: "idle", Procs: 1}, Metrics: sb.NewMetrics("idle")},
		},
	}
	out := Report(res)
	for _, want := range []string{
		"workflow demo", "4 processes", "3 stages",
		"select", "steps=2", "2.0MiB", // total in: 8KiB + 2MiB ≈ 2.0MiB
		"FAILED: kaput",
		"steps=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportByteSizeUnits(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.0GiB",
	}
	for n, want := range cases {
		if got := byteSize(n); got != want {
			t.Errorf("byteSize(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestReportFromLiveRun(t *testing.T) {
	hist, err := newHistogramForTest()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name: "live",
		Stages: []Stage{
			{Component: "gromacs", Args: []string{"g.fp", "pos", "200", "2"}, Procs: 2},
			{Component: "magnitude", Args: []string{"g.fp", "pos", "d.fp", "r"}, Procs: 1},
			{Instance: hist, Procs: 1},
		},
	}
	res := runT(t, spec)
	out := Report(res)
	for _, want := range []string{"gromacs", "magnitude", "histogram", "steps=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("live report missing %q:\n%s", want, out)
		}
	}
}

// newHistogramForTest builds a histogram endpoint for report tests.
func newHistogramForTest() (sb.Component, error) {
	return components.NewHistogram([]string{"d.fp", "r", "4"})
}
