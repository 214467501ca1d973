// Command sbreplay re-runs workflow components offline against a
// recorded stream log — the re-analysis half of the durable log story:
// a recorded run is not just crash insurance, it is a dataset any
// component can be re-executed over, with no simulation and no live
// workflow.
//
//	sbreplay [-v] [-stage SEL] [-args "…"] [-log-dir DIR] [-out DIR] [-trace out.jsonl] workflow.sh
//	sbreplay -diff [-tol EPS] -stage SEL [-args "…"] [-alt "…"] [-log-dir DIR] workflow.sh
//	sbreplay -diff [-tol EPS] -against DIRB [-stage SEL [-args "…"]] [-log-dir DIRA] [workflow.sh]
//	sbreplay -ls [-log-dir DIR] [workflow.sh]
//
// The script is the same aprun job script sbrun launches; the recording
// comes from -log-dir, falling back to the script's `replay <dir>`
// directive, then its `log <dir>` directive (replaying a run against
// its own recording). Without -stage the whole workflow re-runs stage
// by stage in dependency order; -stage selects one stage by component
// name or index (sbrun -explain shows both), and -args replaces that
// stage's arguments (tokenized with script quoting rules).
//
// -diff executes the selected stage twice over the same recorded input
// — as scripted (or with -args) for variant A, with -alt arguments for
// variant B (omitting -alt self-diffs A against itself) — and compares
// every output stream step by step, array by array, after assembling
// each step's blocks into global arrays, so variants may repartition
// work freely. -tol 0 (the default) demands bit-identical float64s;
// otherwise values within the tolerance agree. Exit status follows
// diff(1): 0 when the variants agree, 1 when they diverge, 2 on usage
// or execution trouble.
//
// -diff -against DIR compares against a second RECORDING instead of a
// second re-run: without -stage the two recordings are diffed stream
// by stream as they sit on disk (a clean run against its
// crash-recovered re-run, this week's corpus refresh against last
// week's); with -stage the selected stage replays over recording A and
// its captured outputs are compared to the same-named streams of
// recording B — the regression-corpus gate, pinning today's kernels to
// a golden recording's outputs. The script may be omitted in the pure
// recording-vs-recording form when -log-dir names recording A.
//
// -ls lists what the recording holds and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/flexpath"
	"repro/internal/launch"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/workflow"

	_ "repro/internal/sim/gromacs"
	_ "repro/internal/sim/gtcp"
	_ "repro/internal/sim/lammps"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sbreplay: ")

	verbose := flag.Bool("v", false, "log component diagnostics")
	list := flag.Bool("ls", false, "list the recording's streams and exit")
	stageSel := flag.String("stage", "", "replay one stage: component name or stage index (default: every stage)")
	argsOverride := flag.String("args", "", "replace the selected stage's arguments (script quoting rules; requires -stage)")
	diffMode := flag.Bool("diff", false, "differential mode: run the selected stage twice and compare outputs (requires -stage)")
	altArgs := flag.String("alt", "", "variant B's arguments for -diff (default: same as variant A, a self-diff)")
	against := flag.String("against", "", "variant B is this RECORDING for -diff: compare replayed captures (with -stage) or the whole primary recording (without) to its streams")
	tol := flag.Float64("tol", 0, "value tolerance for -diff: 0 compares float64 bits exactly")
	logDir := flag.String("log-dir", "", "recorded log directory to replay against (default: the script's replay directive, else its log directive)")
	outDir := flag.String("out", "", "re-record the replayed outputs as a fresh log directory here")
	tracePath := flag.String("trace", "", "write per-step spans (replay serving, stage steps, diff comparisons) to this JSONL file")
	traceRing := flag.Int("trace-ring", 0, "span ring capacity for -trace (0 = default 65536)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sbreplay [flags] workflow.sh\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	fail := func(format string, args ...any) {
		log.Printf(format, args...)
		os.Exit(2)
	}

	// The script may be omitted when the mode needs no stages and the
	// recording comes from -log-dir: listing, and the pure
	// recording-vs-recording diff.
	scriptless := *logDir != "" && (*list || (*diffMode && *against != "" && *stageSel == ""))
	if flag.NArg() > 1 || (flag.NArg() == 0 && !scriptless) {
		flag.Usage()
		os.Exit(2)
	}

	var spec workflow.Spec
	if flag.NArg() == 1 {
		var err error
		spec, err = launch.ParseFile(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
	}

	dir := *logDir
	if dir == "" {
		dir = spec.ReplayDir
	}
	if dir == "" {
		dir = spec.LogDir
	}
	if dir == "" {
		fail("no recording: pass -log-dir or add a `replay <dir>` (or `log <dir>`) directive to the script")
	}

	src, err := flexpath.OpenLogSource(dir)
	if err != nil {
		fail("%v", err)
	}
	defer src.Close()

	if *list {
		listRecording(src, dir)
		return
	}

	// Resolve which stages replay. -stage narrows to one via the plan
	// (so selection errors name what the plan holds); otherwise the
	// whole spec re-runs in dependency order.
	stages := spec.Stages
	if *stageSel != "" {
		plan, err := workflow.BuildPlan(spec)
		if err != nil {
			fail("%v", err)
		}
		sub, err := plan.StageSubset(*stageSel)
		if err != nil {
			fail("%v", err)
		}
		stages = []workflow.Stage{sub.Node.Stage}
	}
	if *argsOverride != "" {
		if *stageSel == "" {
			fail("-args needs -stage: it replaces one stage's arguments")
		}
		args, err := launch.Fields(*argsOverride)
		if err != nil {
			fail("-args: %v", err)
		}
		stages[0].Args = args
	}
	if *diffMode && *stageSel == "" && *against == "" {
		fail("-diff needs -stage (pick the component to A/B) or -against (a recording to compare to)")
	}
	if !*diffMode && *altArgs != "" {
		fail("-alt only applies with -diff")
	}
	if !*diffMode && *against != "" {
		fail("-against only applies with -diff")
	}
	if *against != "" && *altArgs != "" {
		fail("-alt and -against both name variant B; pick one")
	}

	cfg := replay.Config{Source: src, OutDir: *outDir, Name: "sbreplay"}
	if *verbose {
		cfg.Logf = log.Printf
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(*traceRing)
		cfg.Tracer = tracer
		cfg.Registry = obs.Default()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	status := 0
	if *diffMode {
		var rep *replay.DiffReport
		var err error
		switch {
		case *against != "" && *stageSel == "":
			// Recording vs recording: nothing replays, the two
			// directories are compared as they sit on disk.
			rep, err = replay.CompareRecordings(tracer, *tol, dir, *against)
			if err != nil {
				writeTraceIfAsked(*tracePath, tracer)
				fail("%v", err)
			}
		case *against != "":
			// Replay the selected stage over recording A and pin its
			// captured outputs to recording B's same-named streams.
			// Streams B holds beyond the captures are A's inputs, not
			// the stage's outputs — they are not compared.
			res, rerr := replay.Run(ctx, cfg, stages...)
			if rerr != nil {
				writeTraceIfAsked(*tracePath, tracer)
				fail("%v", rerr)
			}
			all, terr := replay.ReadTraces(*against)
			if terr != nil {
				writeTraceIfAsked(*tracePath, tracer)
				fail("%v", terr)
			}
			b := make(map[string]*replay.StreamTrace, len(res.Captures))
			for name := range res.Captures {
				if tr, ok := all[name]; ok {
					b[name] = tr
				}
			}
			rep = replay.Compare(tracer, *tol, res.Captures, b)
		default:
			a := []workflow.Stage{stages[0]}
			b := []workflow.Stage{stages[0]}
			if *altArgs != "" {
				alt, aerr := launch.Fields(*altArgs)
				if aerr != nil {
					fail("-alt: %v", aerr)
				}
				b[0].Args = alt
			}
			rep, err = replay.Diff(ctx, cfg, *tol, a, b)
			if err != nil {
				writeTraceIfAsked(*tracePath, tracer)
				fail("%v", err)
			}
		}
		fmt.Print(rep.Render())
		if rep.Divergent() {
			status = 1
		}
	} else {
		res, err := replay.Run(ctx, cfg, stages...)
		if res != nil {
			printRun(res)
		}
		if err != nil {
			writeTraceIfAsked(*tracePath, tracer)
			fail("%v", err)
		}
	}
	writeTraceIfAsked(*tracePath, tracer)
	os.Exit(status)
}

// listRecording prints each recorded stream's shape: writer count,
// step range, and how the recording ended.
func listRecording(src *flexpath.LogSource, dir string) {
	streams := src.Streams()
	fmt.Printf("recording %s: %d stream(s)\n", dir, len(streams))
	for _, name := range streams {
		lg, err := src.Store().Log(name)
		if err != nil {
			fmt.Printf("  %s: %v\n", name, err)
			continue
		}
		cfg, ok := lg.Config()
		if !ok {
			fmt.Printf("  %s: empty (no config journaled)\n", name)
			continue
		}
		state := "truncated (no end record)"
		if last, ended := lg.Ended(); ended {
			state = fmt.Sprintf("ended at step %d", last)
		}
		fmt.Printf("  %s: writers=%d steps=[%d..%d) %s\n",
			name, cfg.WriterSize, lg.FirstStep(), lg.NextStep(), state)
	}
}

// printRun summarizes a replay's captures.
func printRun(res *replay.RunResult) {
	for _, name := range sortedKeys(res.Captures) {
		tr := res.Captures[name]
		state := "truncated"
		if tr.Ended {
			state = fmt.Sprintf("ended at step %d", tr.LastStep)
		}
		fmt.Printf("captured %s: %d step(s), %d bytes, %s\n", name, len(tr.Steps), tr.Bytes(), state)
	}
	for _, name := range res.Truncated {
		fmt.Printf("input %s: recording truncated (live run's tail missing)\n", name)
	}
}

func sortedKeys(m map[string]*replay.StreamTrace) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeTraceIfAsked dumps the tracer ring as JSONL, one span per line.
func writeTraceIfAsked(path string, tracer *obs.Tracer) {
	if path == "" || tracer == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("writing trace: %v", err)
		return
	}
	if err := tracer.WriteJSONL(f); err != nil {
		log.Printf("writing trace: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Printf("writing trace: %v", err)
	}
}
