// Command sbrun launches a complete SmartBlock workflow from an
// aprun-style job script (the paper's Fig. 8 format):
//
//	sbrun [-v] [-explain] [-transport inproc|tcp|uds|shm|auto] [-broker addr] [-log-dir DIR] [-max-restarts N] [-step-timeout D] [-trace out.jsonl] [-profile-out prof.json] [-optimize prof.json] [-rescale] workflow.sh
//
// Every aprun line becomes a component stage; all stages launch
// simultaneously and rendezvous on their stream names. -transport (or a
// `transport` directive in the script) selects the stream fabric: the
// default in-process broker, a remote TCP sbbroker at -broker host:port,
// a Unix-socket sbbroker at -broker /path/to.sock, or the shared-memory
// ring of an sbbroker -transport shm on the same node — letting several
// sbrun/sbcomp processes form one workflow without recompiling any
// component. `auto` resolves the kind from the address shape (no
// address → inproc, path → shm, host:port → tcp); per-stream `transport
// ... stream=<name>` directives route individual edges over other
// backends, and `sbrun -explain` prints the per-edge resolution.
//
// -log-dir (or a `log` directive in the script) mounts a durable stream
// log on the in-process broker: every step is journaled to disk, and a
// relaunched sbrun pointed at the same directory recovers the streams a
// crashed run left behind. With a remote transport the directive is
// informational only — durability belongs to the sbbroker process, which
// takes its own -log-dir. A recording outlives the run: sbreplay re-runs
// any component offline against it (a `replay <dir>` script directive
// names the default recording for sbreplay without affecting sbrun).
// A `fuse` directive applies the stage-fusion pass before launching.
//
// Example script:
//
//	aprun -n 4 lammps dump.fp atoms 20000 5 &
//	aprun -n 2 select dump.fp atoms 1 sel.fp lmpsel vx vy vz &
//	aprun -n 2 magnitude sel.fp lmpsel velos.fp velocities &
//	aprun -n 1 histogram velos.fp velocities 16 velocity_hist.txt &
//	wait
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cost"
	"repro/internal/flexpath"
	"repro/internal/launch"
	"repro/internal/obs"
	"repro/internal/streamlog"
	"repro/internal/workflow"

	_ "repro/internal/sim/gromacs"
	_ "repro/internal/sim/gtcp"
	_ "repro/internal/sim/lammps"
)

func main() {
	verbose := flag.Bool("v", false, "log component diagnostics")
	lintOnly := flag.Bool("lint", false, "check the workflow's stream wiring and exit without running")
	explain := flag.Bool("explain", false, "print the workflow plan (stages, dataflow edges, fusion analysis, lint) and exit without running")
	transportKind := flag.String("transport", "", "stream fabric backend: inproc, tcp, uds or shm (one client for a socket path; the broker decides whether payloads ride shared memory), or auto (default: the script's transport directive, else inproc)")
	broker := flag.String("broker", "", "backend address: sbbroker host:port for tcp, socket path for uds/shm (plain -broker implies -transport tcp)")
	logDir := flag.String("log-dir", "", "journal streams to a durable segmented log under this directory (inproc transport; overrides the script's log directive)")
	maxRestarts := flag.Int("max-restarts", 0, "supervised restarts per stage for retryable failures (0 disables)")
	restartBackoff := flag.Duration("restart-backoff", 0, "delay before the first stage restart, doubling per retry (0 = 50ms default)")
	stepTimeout := flag.Duration("step-timeout", 0, "bound on every blocking stream operation per stage (0 disables)")
	tracePath := flag.String("trace", "", "write per-step spans from every layer to this JSONL file")
	traceRing := flag.Int("trace-ring", 0, "span ring capacity for -trace (0 = default 65536; oldest spans drop beyond it)")
	optimizePath := flag.String("optimize", "", "rewrite the plan with the cost planner against this profile JSON (from -profile-out or sbreplay -profile-out) before launching; with -explain, print the decision log instead of running")
	profileOut := flag.String("profile-out", "", "distill this run into a cost profile JSON at the given path (feeds a later -optimize)")
	rescale := flag.Bool("rescale", false, "enable the elastic-rescale monitor: a stage lagging the workflow leader is re-scaled at a step boundary")
	rescaleMax := flag.Int("rescale-max", 0, "rank-count ceiling for -rescale growth (0 = default 8)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sbrun [flags] workflow.sh\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	spec, err := launch.ParseFile(flag.Arg(0))
	if err != nil {
		log.Fatalf("sbrun: %v", err)
	}

	// Backend selection happens before the plan is built so -explain
	// shows the same per-edge transport resolution a run would open. The
	// command line overrides the script's transport directive; a bare
	// -broker keeps its historical meaning of "remote TCP broker".
	if *transportKind != "" {
		spec.Transport.Kind = *transportKind
	}
	if *broker != "" {
		spec.Transport.Addr = *broker
		if spec.Transport.Kind == "" || spec.Transport.Kind == flexpath.KindInproc {
			spec.Transport.Kind = flexpath.KindTCP
		}
	}

	// The plan IR underlies everything pre-launch: -explain prints it,
	// lint checks it, and the fusion pass rewrites the spec from it.
	plan, err := workflow.BuildPlan(spec)
	if err != nil {
		log.Fatalf("sbrun: %v", err)
	}

	// Cost-model plan optimization: the planner rewrites rank counts,
	// fusion, and per-edge transports against a measured profile, and the
	// rewritten plan replaces the scripted one for everything downstream
	// (explain, lint, fusion, launch).
	var optimized *workflow.OptimizedPlan
	if *optimizePath != "" {
		prof, err := cost.Load(*optimizePath)
		if err != nil {
			log.Fatalf("sbrun: %v", err)
		}
		optimized, err = (workflow.CostPlanner{}).Optimize(plan, prof)
		if err != nil {
			log.Fatalf("sbrun: %v", err)
		}
		plan = optimized.Plan
		spec = optimized.Plan.Spec
	}
	if *explain {
		if optimized != nil {
			fmt.Print(plan.ExplainOptimized(optimized))
		} else {
			fmt.Print(plan.Explain())
		}
		return
	}

	// Wiring check: a misnamed stream would otherwise wedge the whole job
	// (readers block forever on a stream nobody publishes).
	issues := plan.Issues()
	fatal := false
	for _, issue := range issues {
		fmt.Fprintln(os.Stderr, "sbrun:", issue)
		if issue.Severity == "error" {
			fatal = true
		}
	}
	if fatal {
		log.Fatalf("sbrun: refusing to launch a mis-wired workflow (see errors above)")
	}
	if *lintOnly {
		if len(issues) == 0 {
			fmt.Println("workflow wiring OK")
		}
		return
	}

	// Stage fusion: collapse eligible adjacent stages into single fused
	// stages before launching.
	if spec.Fuse {
		fused, err := plan.Fuse()
		if err != nil {
			log.Fatalf("sbrun: %v", err)
		}
		for _, g := range fused.Groups {
			fmt.Fprintf(os.Stderr, "sbrun: fused stages %v as %s (streams elided: %v)\n",
				g.Stages, strings.Join(g.Parts, "+"), g.Elided)
		}
		if len(fused.Groups) == 0 && *verbose {
			log.Printf("sbrun: fuse requested but no stage chain is eligible")
		}
		spec = fused.Spec
	}

	// Open the fabric: the workflow default backend, plus — when the
	// script routed individual streams elsewhere — a per-stream Router
	// over each distinct backend, opened once.
	resolved := spec.Transport.Resolve()
	base, err := flexpath.Open(resolved.Kind, resolved.Addr)
	if err != nil {
		log.Fatalf("sbrun: %v", err)
	}
	fabric, err := routeEdges(base, resolved, spec.EdgeTransports)
	if err != nil {
		base.Close()
		log.Fatalf("sbrun: %v", err)
	}
	defer fabric.Close()
	kind := resolved.Kind

	// Durable stream log: the command line overrides the script's `log`
	// directive. It mounts on the in-process broker only — with a remote
	// transport, durability is the sbbroker process's job (-log-dir there).
	if *logDir != "" {
		spec.LogDir = *logDir
	}
	if spec.LogDir != "" {
		if ip, ok := base.(flexpath.InProc); ok {
			store, err := streamlog.OpenStore(spec.LogDir, streamlog.Options{})
			if err != nil {
				log.Fatalf("sbrun: %v", err)
			}
			// Drain the write-behind appender before closing: without the
			// flush the tail of the run (late steps, stream end records)
			// may still sit in the append queue, leaving a recording that
			// sbreplay sees as truncated even though the run was clean.
			defer store.Close()
			defer func() {
				flushCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := ip.B.FlushLog(flushCtx); err != nil {
					log.Printf("sbrun: flushing stream log: %v", err)
				}
			}()
			ip.B.AttachLog(store)
			n, err := ip.B.Recover()
			if err != nil {
				log.Fatalf("sbrun: recovering from %s: %v", spec.LogDir, err)
			}
			if n > 0 {
				log.Printf("sbrun: recovered %d stream(s) from %s", n, spec.LogDir)
			}
		} else if *verbose {
			log.Printf("sbrun: log directory %s ignored on %s transport (set -log-dir on sbbroker instead)", spec.LogDir, kind)
		}
	}

	opts := workflow.Options{
		Restart: workflow.RestartPolicy{
			MaxRestarts: *maxRestarts,
			Backoff:     *restartBackoff,
			StepTimeout: *stepTimeout,
		},
	}
	if *verbose {
		opts.Logf = log.Printf
	}
	var tracer *obs.Tracer
	if *tracePath != "" || *profileOut != "" {
		// -profile-out needs the same span seams -trace records.
		tracer = obs.NewTracer(*traceRing)
		opts.Tracer = tracer
		opts.Registry = obs.Default()
		if ip, ok := base.(flexpath.InProc); ok {
			ip.B.SetObserver(tracer, opts.Registry)
		}
	}
	if *rescale {
		opts.Rescale = workflow.RescalePolicy{Enable: true, MaxProcs: *rescaleMax}
		if opts.Registry == nil {
			// The lag signal is registry step counters.
			opts.Registry = obs.Default()
			if ip, ok := base.(flexpath.InProc); ok {
				ip.B.SetObserver(opts.Tracer, opts.Registry)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := workflow.Run(ctx, fabric, spec, opts)
	if res != nil {
		fmt.Print(workflow.Report(res))
	}
	if tracer != nil && *tracePath != "" {
		if werr := writeTrace(*tracePath, tracer); werr != nil {
			log.Printf("sbrun: writing trace: %v", werr)
		} else if dropped := tracer.Dropped(); dropped > 0 {
			log.Printf("sbrun: trace ring overflowed; oldest %d spans dropped (raise -trace-ring)", dropped)
		}
	}
	if *profileOut != "" {
		if perr := saveProfile(*profileOut, flag.Arg(0), tracer, opts.Registry, spec, kind); perr != nil {
			log.Printf("sbrun: writing profile: %v", perr)
		}
	}
	if err != nil {
		log.Fatalf("sbrun: %v", err)
	}
}

// routeEdges wraps the default backend in a per-stream Router when the
// script routed streams onto other transports. Each distinct resolved
// (kind, addr) pair opens exactly once — two streams routed to the same
// broker share one client — and Router.Close closes each once. With no
// per-stream entries the default backend is returned unwrapped.
func routeEdges(base flexpath.Transport, resolved workflow.TransportSpec,
	edges map[string]workflow.TransportSpec) (flexpath.Transport, error) {
	if len(edges) == 0 {
		return base, nil
	}
	router := flexpath.Router{Routes: map[string]flexpath.Transport{}, Default: base}
	opened := map[workflow.TransportSpec]flexpath.Transport{resolved: base}
	streams := make([]string, 0, len(edges))
	for stream := range edges {
		streams = append(streams, stream)
	}
	sort.Strings(streams) // deterministic open order
	for _, stream := range streams {
		r := edges[stream].Resolve()
		t, ok := opened[r]
		if !ok {
			var err error
			t, err = flexpath.Open(r.Kind, r.Addr)
			if err != nil {
				router.Close()
				return nil, fmt.Errorf("stream %q: %v", stream, err)
			}
			opened[r] = t
		}
		router.Routes[stream] = t
	}
	return router, nil
}

// saveProfile distills the finished run's spans and registry counters
// into a cost profile and writes it as JSON — the input of a later
// `sbrun -optimize` or `sbreplay -whatif`. Stages without a span seam
// (reduce endpoints) are synthesized from registry counters alone.
func saveProfile(path, script string, tracer *obs.Tracer, reg *obs.Registry,
	spec workflow.Spec, kind string) error {
	prof := cost.FromSpans(tracer.Spans())
	snap := reg.Snapshot()
	prof.ApplyRegistry(snap)
	for _, st := range spec.Stages {
		name := st.Component
		if name == "" && st.Instance != nil {
			name = st.Instance.Name()
		}
		if name == "" || prof.Stages[name] != nil {
			continue
		}
		if synth := cost.SynthesizeStage(name, st.Procs, snap); synth != nil {
			prof.Stages[name] = synth
		}
	}
	prof.Workflow = spec.Name
	prof.Transport = kind
	prof.Meta = map[string]string{"source": "sbrun -profile-out " + script}
	return prof.Save(path)
}

// writeTrace dumps the tracer's ring as JSONL, one span per line in
// emit order.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
