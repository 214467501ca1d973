// Command sbrun launches a complete SmartBlock workflow from an
// aprun-style job script (the paper's Fig. 8 format):
//
//	sbrun [-v] [-explain] [-trace out.jsonl [-trace-ring N]] workflow.sh
//
// The script is the workflow's only configuration; the flags change
// what sbrun reports, never what runs. Every aprun line becomes a
// component stage; all stages launch simultaneously and rendezvous on
// their stream names. A `transport` directive selects the stream
// fabric: the default in-process broker, a remote TCP sbbroker
// (`transport tcp host:port`), a Unix-socket sbbroker (`transport uds
// /path/to.sock`), or the shared-memory ring of an sbbroker -transport
// shm on the same node — letting several sbrun/sbcomp processes form
// one workflow without recompiling any component. `auto` resolves the
// kind from the address shape (no address → inproc, path → shm,
// host:port → tcp); per-stream `transport ... stream=<name>` directives
// route individual edges over other backends.
//
// A `log <dir>` directive mounts a durable stream log on the
// in-process broker: every step is journaled to disk, and a relaunched
// sbrun on the same script recovers the streams a crashed run left
// behind. With a remote transport sbrun ignores the request and says so
// on stderr — durability belongs to the sbbroker process, which takes
// its own -log-dir. A recording outlives the run: sbreplay re-runs any
// component offline against it. A `supervise restarts=N backoff=D
// step-timeout=D` directive restarts stages that fail with a retryable
// error, and a `fuse` directive applies the stage-fusion pass before
// launching.
//
// -explain prints the plan (stages, per-edge transports, fusion, lint)
// and exits without running: 0 when the wiring is clean or only warns,
// 1 when lint reports an error — the error sbrun would refuse to
// launch on.
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
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

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
	explain := flag.Bool("explain", false, "print the workflow plan (stages, dataflow edges, fusion analysis, lint) and exit without running; exit 1 if lint reports an error")
	tracePath := flag.String("trace", "", "write per-step spans from every layer to this JSONL file")
	traceRing := flag.Int("trace-ring", 0, "span ring capacity for -trace (0 = default 65536; oldest spans drop beyond it)")
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

	// The plan IR underlies everything pre-launch: -explain prints it,
	// lint checks it, and the fusion pass rewrites the spec from it.
	plan, err := workflow.BuildPlan(spec)
	if err != nil {
		log.Fatalf("sbrun: %v", err)
	}

	// Wiring check: a misnamed stream would otherwise wedge the whole job
	// (readers block forever on a stream nobody publishes).
	issues := plan.Issues()
	fatal := slices.ContainsFunc(issues, func(i workflow.LintIssue) bool { return i.Severity == "error" })
	if *explain {
		fmt.Print(plan.Explain())
		if fatal {
			os.Exit(1)
		}
		return
	}
	for _, issue := range issues {
		fmt.Fprintln(os.Stderr, "sbrun:", issue)
	}
	if fatal {
		log.Fatalf("sbrun: refusing to launch a mis-wired workflow (see errors above)")
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

	// Durable stream log: the script's `log` directive mounts it on the
	// in-process broker only — with a remote transport, durability is
	// the sbbroker process's job (-log-dir there).
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
		} else {
			fmt.Fprintf(os.Stderr, "sbrun: log directory %s ignored on %s transport (set -log-dir on sbbroker instead)\n", spec.LogDir, resolved.Kind)
		}
	}

	var opts workflow.Options
	if *verbose {
		opts.Logf = log.Printf
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(*traceRing)
		opts.Tracer = tracer
		opts.Registry = obs.Default()
		if ip, ok := base.(flexpath.InProc); ok {
			ip.B.SetObserver(tracer, opts.Registry)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := workflow.Run(ctx, fabric, spec, opts)
	if res != nil {
		fmt.Print(workflow.Report(res))
	}
	if tracer != nil {
		if werr := writeTrace(*tracePath, tracer); werr != nil {
			log.Printf("sbrun: writing trace: %v", werr)
		} else if dropped := tracer.Dropped(); dropped > 0 {
			log.Printf("sbrun: trace ring overflowed; oldest %d spans dropped (raise -trace-ring)", dropped)
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
