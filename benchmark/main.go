// Command benchmark is the repository's benchmark: seven fixed workflow
// workloads driven through the real stack in one process, end-to-end
// metrics measured from outside the system, and (with -trace 1) an
// outside-in per-layer trace. README.md defines every metric.
//
// From the repository root:
//
//	bash benchmark/run.sh                       every workload, end-to-end metrics
//	bash benchmark/run.sh -workload bulk_uds    one workload
//	bash benchmark/run.sh -trace 1              the per-layer trace of every workload
//	bash benchmark/run.sh -selfcheck            measure twice, fail if the two sets disagree
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Gated end-to-end metrics: name, unit, and the share of the previous
// median by which a value may worsen before it counts as a regression.
// BENCHMARK.json declares the same list; a test keeps the two equal.
var endToEnd = []metricDef{
	{Name: "step_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "alloc_kb_per_step", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end metrics only
}

// metric is one reported number: the median of its per-repetition
// values, how many there were, and their min-max spread.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
}

// metricOf summarises per-repetition values. With no values (every
// repetition stalled) it reports 0, so the result stays printable; the
// stalled steps are counted as failed.
func metricOf(unit string, perRep []float64) metric {
	if len(perRep) == 0 {
		return metric{Unit: unit}
	}
	lo, hi := spread(perRep)
	return metric{Value: median(perRep), Unit: unit, Samples: len(perRep), Min: lo, Max: hi}
}

// result is one workload's outcome.
type result struct {
	Workload         string            `json:"workload"`
	Wire             string            `json:"wire"`
	Reps             int               `json:"repetitions"`
	Attempted        int               `json:"attempted"`
	Failed           int               `json:"failed"`
	Failures         []string          `json:"failures,omitempty"`
	Metrics          map[string]metric `json:"metrics"`
	Extra            map[string]metric `json:"ungated"`
	PrepareS         float64           `json:"prepare_s"`
	LeakedGoroutines int               `json:"leaked_goroutines"`
	layerTable       string
}

// options are the command's flags.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	selfcheck  bool
	allowDirty bool
	tmpRoot    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or \"all\"")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds to measure each workload for")
	flag.IntVar(&o.trace, "trace", 0, "1: run the traced repetitions and isolated layer timings, and report the per-layer metrics")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "measure every selected workload twice and fail if a gated metric differs by more than its bound")
	flag.BoolVar(&o.allowDirty, "allow-dirty", false, "measure even when the git tree has uncommitted changes")
	flag.StringVar(&o.tmpRoot, "tmp", os.TempDir(), "directory for sockets, stream logs and span files")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var selected []*workload
	if o.workload == "all" {
		selected = workloads
	} else if w := findWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))
	if err := os.MkdirAll(o.tmpRoot, 0o777); err != nil {
		return err
	}

	commit, dirty := gitState(repoRoot())
	if dirty && !o.allowDirty {
		return fmt.Errorf("the git tree at %s has uncommitted changes; commit them or pass -allow-dirty", commit)
	}
	prov := provenance{Commit: commit, Dirty: dirty, Seed: o.seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: nproc, GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, TempDir: o.tmpRoot, TempFS: fsTypeOf(o.tmpRoot)}
	printJSON("provenance", prov)

	ctx := context.Background()
	sets := 1
	if o.selfcheck {
		sets = 2
	}
	all := make([][]*result, sets)
	for set := range all {
		for _, w := range selected {
			res, err := measure(ctx, w, o)
			if err != nil {
				return err
			}
			printResult(res, o.trace == 1)
			all[set] = append(all[set], res)
		}
	}

	ok := true
	for _, set := range all {
		for _, res := range set {
			if res.Failed > 0 {
				ok = false
			}
		}
	}
	if o.selfcheck && !selfcheck(all[0], all[1]) {
		ok = false
	}
	// The last line is the contract's result object. With several
	// workloads it sums the steps and reports the last workload's
	// metrics; each workload's own object was printed above.
	last := all[sets-1][len(selected)-1]
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: ok, Metrics: bare(last.Metrics)}
	for _, set := range all {
		for _, res := range set {
			final.Attempted += res.Attempted
			final.Failed += res.Failed
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !ok {
		return fmt.Errorf("outputs were wrong, steps failed, or the self-check disagreed (see above)")
	}
	return nil
}

// bare strips the sample count and spread, leaving the value and unit
// the result contract asks for.
func bare(ms map[string]metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for k, m := range ms {
		out[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// measure runs one workload: untimed preparation, then repetitions on
// fresh fabrics until the time budget is spent (at least three).
func measure(ctx context.Context, w *workload, o options) (*result, error) {
	goroutines := runtime.NumGoroutine()
	s, err := newSession(ctx, w, o.seed, o.tmpRoot)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, PrepareS: s.prepareS,
		Metrics: map[string]metric{}, Extra: map[string]metric{}}
	if o.trace == 1 {
		if err := s.traced(ctx, o, res); err != nil {
			s.Close()
			return nil, err
		}
	} else {
		s.timed(ctx, o, res)
	}
	for _, r := range s.reps {
		a, f, why := r.outcome()
		res.Attempted += a
		res.Failed += f
		if len(res.Failures) < 8 {
			res.Failures = append(res.Failures, why...)
		}
		res.Wire = r.wire
	}
	res.Reps = len(s.reps)
	res.Extra["baseline_step_ms"] = metric{Value: s.in.baselineStepMS, Unit: "ms"}
	s.Close()
	res.LeakedGoroutines = settleGoroutines(goroutines)
	return res, nil
}

// minReps is the fewest repetitions a metric is the median of.
const minReps = 3

// setupProbes is how many short set-up-only cycles a run adds, so that
// setup_s is the median of more than a handful of values.
const setupProbes = 20

// timed produces the end-to-end metrics: no tracer, no decorator.
func (s *session) timed(ctx context.Context, o options, res *result) {
	w := s.w
	start := time.Now()
	full := repOptions{warm: w.Warm, steps: w.Steps}
	var stepMS, latMS, allocKB, setupS, intervals []float64
	for len(s.reps) < minReps || time.Since(start).Seconds() < o.seconds {
		r := s.run(ctx, full)
		if !r.complete() {
			break // a stalled repetition has no timings; it is counted as failed steps
		}
		stepMS = append(stepMS, r.stepMS())
		latMS = append(latMS, median(r.latencyMS()))
		allocKB = append(allocKB, r.allocKBPerStep())
		setupS = append(setupS, r.setupS())
		intervals = append(intervals, r.intervalsMS()...)
	}
	// Set-up probes: the same fabric start, attach and launch, with the
	// run cut to two steps, so that setup_s is the median of many
	// set-ups. The lammps family's set-up includes the proxy's first
	// output step, so it gets fewer; a replay's set-up is opening the
	// recording, which every repetition above already did in full.
	probes := setupProbes
	switch {
	case w.Family == famLAMMPS:
		probes = 3
	case w.Replay:
		probes = 0
	}
	for i := 0; i < probes; i++ {
		if r := s.run(ctx, repOptions{warm: 1, steps: 1}); r.complete() {
			setupS = append(setupS, r.setupS())
		}
	}
	res.Metrics["step_ms"] = metricOf("ms", stepMS)
	res.Metrics["latency_ms"] = metricOf("ms", latMS)
	res.Metrics["alloc_kb_per_step"] = metricOf("KB", allocKB)
	res.Metrics["setup_s"] = metricOf("s", setupS)
	if len(intervals) > 0 {
		res.Extra["step_p50_ms"] = metric{Value: median(intervals), Unit: "ms", Samples: len(intervals)}
		if tail := tailPercentile(len(intervals)); tail > 50 {
			res.Extra[fmt.Sprintf("step_p%g_ms", tail)] = metric{Value: percentile(intervals, tail), Unit: "ms", Samples: len(intervals)}
		}
	}
	if ms := res.Metrics["step_ms"].Value; ms > 0 {
		res.Extra["mb_per_s"] = metric{Value: float64(w.bytesPerStep()) / 1e6 / (ms / 1e3), Unit: "MB/s"}
	}
}

// printJSON prints a labelled JSON line.
func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

// printResult prints one workload's metrics as a table and as JSON.
func printResult(res *result, traced bool) {
	fmt.Printf("\n== %s  wire=%s  repetitions=%d  steps attempted=%d failed=%d  fail_ratio=%g  prepare_s=%.3f  leaked_goroutines=%d\n",
		res.Workload, res.Wire, res.Reps, res.Attempted, res.Failed,
		float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.PrepareS, res.LeakedGoroutines)
	for _, f := range res.Failures {
		fmt.Println("   FAILED:", f)
	}
	title := "gated"
	if traced {
		title = "layer"
	}
	printMetrics(title, res.Metrics)
	printMetrics("ungated", res.Extra)
	if traced && res.layerTable != "" {
		fmt.Print(res.layerTable)
	}
	printJSON("result", res)
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("   %-8s %-34s %14.4f %-6s", title, n, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf("  n=%d", m.Samples)
		}
		if m.Min != 0 || m.Max != 0 {
			line += fmt.Sprintf("  spread %.4f..%.4f", m.Min, m.Max)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// selfcheck compares two sets of results of the same code and reports,
// per gated metric and workload, how far the second is from the first.
// It fails when any is worse than the first by more than its bound.
func selfcheck(a, b []*result) bool {
	ok := true
	fmt.Println("\n== selfcheck: relative difference of the second set from the first (positive = worse)")
	for i := range a {
		for _, def := range endToEnd {
			ma, mb := a[i].Metrics[def.Name], b[i].Metrics[def.Name]
			d := relDiff(ma.Value, mb.Value)
			verdict := "ok"
			if math.Abs(d) > def.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("   %-16s %-20s %12.4f -> %12.4f %-4s %+7.2f%%  (bound %.0f%%)  %s\n",
				a[i].Workload, def.Name, ma.Value, mb.Value, def.Unit, 100*d, 100*def.Bound, verdict)
		}
	}
	return ok
}

// spansPath is where a traced run writes a workload's spans.
func spansPath(tmpRoot, workload string) string {
	return filepath.Join(tmpRoot, "spans-"+workload+".jsonl")
}
