package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// toy shrinks a workload to a few small steps so the whole set runs in
// a second or two; the pipelines, wires and verification are the real
// ones.
func toy(w *workload) *workload {
	t := *w
	t.Warm, t.Steps = 1, 4
	switch t.Family {
	case famAtoms:
		t.Rows = 600
	case famGTCP:
		t.Rows, t.Points = 4, 50
	case famLAMMPS:
		t.Rows, t.SubCycles = 400, 2
	}
	t.RepSeconds = 5
	return &t
}

func TestEveryWorkloadAtToySizeVerifies(t *testing.T) {
	for _, w := range workloads {
		w := toy(w)
		t.Run(w.Name, func(t *testing.T) {
			ctx := context.Background()
			s, err := newSession(ctx, w, 42, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			r := s.run(ctx, repOptions{warm: w.Warm, steps: w.Steps})
			attempted, failed, why := r.outcome()
			if attempted != w.total() || failed != 0 {
				t.Fatalf("attempted %d (want %d), failed %d: %v", attempted, w.total(), failed, why)
			}
			if got := len(r.intervalsMS()); !w.Replay && got != w.Steps {
				t.Errorf("%d step intervals, want %d", got, w.Steps)
			}
			for _, v := range []float64{r.stepMS(), median(r.latencyMS()), r.allocKBPerStep(), r.setupS()} {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("a gated metric is not a positive number: %v", v)
				}
			}
		})
	}
}

// A wrong result must be counted, not averaged away.
func TestSinkCountsAWrongHistogramAsFailed(t *testing.T) {
	w := toy(findWorkload("bulk_inproc"))
	ctx := context.Background()
	s, err := newSession(ctx, w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.in.expect[1].Counts[0]++ // the reference now disagrees on every step using variant 1
	r := s.run(ctx, repOptions{warm: w.Warm, steps: w.Steps})
	_, failed, why := r.outcome()
	want := 0
	for step := 0; step < w.total(); step++ {
		if step%nVariants == 1 {
			want++
		}
	}
	if failed != want {
		t.Fatalf("failed = %d, want %d (%v)", failed, want, why)
	}
}

// A stalled fabric must become failed steps naming the stage, not a hang.
func TestDeadlineTurnsAStallIntoFailedSteps(t *testing.T) {
	w := toy(findWorkload("bulk_inproc"))
	s, err := newSession(context.Background(), w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the deadline has already passed
	r := w.runLive(ctx, s.in, 7, t.TempDir(), repOptions{warm: w.Warm, steps: w.Steps})
	attempted, failed, why := r.outcome()
	if failed == 0 || attempted != w.total() || r.complete() {
		t.Fatalf("attempted %d failed %d complete %v", attempted, failed, r.complete())
	}
	if len(why) == 0 {
		t.Fatal("no reason recorded for the failed steps")
	}
	t.Log(why[0])
}

// The traced run must account consistently: transport time nested in an
// adios call can never exceed that call.
func TestDecoratorAccounting(t *testing.T) {
	for _, name := range []string{"bulk_inproc", "bulk_uds", "gtcp_chain"} {
		w := toy(findWorkload(name))
		ctx := context.Background()
		s, err := newSession(ctx, w, 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(1 << 14)
		r := s.run(ctx, repOptions{warm: w.Warm, steps: w.Steps, tracer: tr, timed: true})
		if _, failed, why := r.outcome(); failed != 0 {
			t.Fatalf("%s: %v", name, why)
		}
		rec := r.rec
		for k := range rec.done {
			for rank := range rec.stamps[k] {
				endStep := rec.accepted[k][rank] - rec.stamps[k][rank]
				if rec.pubNS[k][rank] <= 0 || rec.pubNS[k][rank] > endStep {
					t.Errorf("%s step %d writer %d: publish %dns outside its EndStep of %dns", name, k, rank, rec.pubNS[k][rank], endStep)
				}
			}
			for rank := range rec.sinkReadNS[k] {
				if rec.sinkNestedNS[k][rank] <= 0 || rec.sinkNestedNS[k][rank] > rec.sinkReadNS[k][rank] {
					t.Errorf("%s step %d sink rank %d: nested transport %dns outside its adios calls of %dns",
						name, k, rank, rec.sinkNestedNS[k][rank], rec.sinkReadNS[k][rank])
				}
			}
		}
		all := r.tt.total("")
		steps := float64(w.total())
		systemStages := len(w.build(s.in, rec, 1, 3).stages) - 2 // all but the source and the sink
		if want := steps * float64(w.SrcRanks+w.MidRanks*systemStages); all.publishes != want {
			t.Errorf("%s: %v publishes, want %v", name, all.publishes, want)
		}
		if all.publishBytes < steps*float64(w.bytesPerStep()) {
			t.Errorf("%s: %v bytes published, fewer than the source's %v", name, all.publishBytes, steps*float64(w.bytesPerStep()))
		}
		L := r.fold(tr.Spans())
		if L.m["components.kernel_ms"] <= 0 || L.m["flexpath.blocks_per_step"] <= 0 {
			t.Errorf("%s: fold found no kernel time or no fetched blocks: %v", name, L.m)
		}
		if tr.Dropped() != 0 {
			t.Errorf("%s: tracer ring dropped %d spans", name, tr.Dropped())
		}
		s.Close()
	}
}

func TestReferenceHistogram(t *testing.T) {
	h := histogramOf([]float64{0, 1, 2, 3, 4}, 2) // width 2: [0,2) [2,4]
	if h.Min != 0 || h.Max != 4 || h.Counts[0] != 2 || h.Counts[1] != 3 {
		t.Fatalf("%+v", h)
	}
	if h := histogramOf([]float64{5, 5, 5}, 4); h.Counts[0] != 3 {
		t.Fatalf("identical values must share the first bin: %+v", h)
	}
	m := magnitudesOf([]float64{3, 4, 9, 0, 0, 2}, 3, []int{0, 1})
	if m[0] != 5 || m[1] != 0 {
		t.Fatalf("%v", m)
	}
	if c := columnsOf([]float64{1, 2, 3, 4, 5, 6}, 3, []int{2, 0}); len(c) != 4 || c[0] != 3 || c[1] != 1 || c[2] != 6 || c[3] != 4 {
		t.Fatalf("%v", c)
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || xs[0] != 5 {
		t.Fatal("median wrong or input reordered")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even-count median")
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
	if p := percentile([]float64{0, 10, 20, 30, 40}, 75); p != 30 {
		t.Fatalf("p75 = %v", p)
	}
	if p := percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	// The tail percentile needs ten samples beyond it.
	for n, want := range map[int]float64{30: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if lo, hi := spread(xs); lo != 1 || hi != 5 {
		t.Fatal("spread")
	}
	if d := relDiff(100, 110); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("relDiff = %v", d)
	}
}

// BENCHMARK.json is what the driver reads; the names, units and bounds
// in it must be the ones the binary reports.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, binary has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, binary %q (or the why differs)", i, decl.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, binary has %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Bound != m.Bound || d.Better != m.Better {
			t.Errorf("end-to-end %d: declared %+v, binary %+v", i, d, m)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, binary has %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if d := decl.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, binary %+v", i, d, m)
		}
	}
}

// Every metric the binary prints for a workload is one of the declared
// names: run the smallest workload through both modes.
func TestReportedMetricNamesAreTheDeclaredOnes(t *testing.T) {
	w := toy(findWorkload("small_steps"))
	for trace, defs := range map[int][]metricDef{0: endToEnd, 1: perLayer} {
		ctx := context.Background()
		s, err := newSession(ctx, w, 5, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res := &result{Metrics: map[string]metric{}, Extra: map[string]metric{}}
		o := options{seconds: 0.05, tmpRoot: t.TempDir(), trace: trace}
		if trace == 1 {
			if err := s.traced(ctx, o, res); err != nil {
				t.Fatal(err)
			}
		} else {
			s.timed(ctx, o, res)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics reported, %d declared", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace %d: metric %s missing, mis-united or not a number: %+v", trace, d.Name, m)
			}
		}
		s.Close()
	}
}
