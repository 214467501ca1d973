// Command sbcomp runs a single SmartBlock component (or simulation
// driver) as its own OS process, attaching to a remote broker — the
// closest analogue of the paper's one-MPI-executable-per-component
// deployment model:
//
//	sbcomp -broker addr -n procs component arg...
//
// The broker's address says how to reach it: host:port dials a TCP
// sbbroker, a socket path dials a uds or shm sbbroker (one client for
// both; the broker decides whether payloads ride shared memory).
//
// For example, the Fig. 8 LAMMPS workflow as four separate processes
// sharing one sbbroker:
//
//	sbbroker &
//	sbcomp -broker 127.0.0.1:7777 -n 1 histogram velos.fp velocities 16 &
//	sbcomp -broker 127.0.0.1:7777 -n 2 magnitude sel.fp lmpsel velos.fp velocities &
//	sbcomp -broker 127.0.0.1:7777 -n 2 select dump.fp atoms 1 sel.fp lmpsel vx vy vz &
//	sbcomp -broker 127.0.0.1:7777 -n 4 lammps dump.fp atoms 20000 5 &
//	wait
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/sb"

	_ "repro/internal/sim/gromacs"
	_ "repro/internal/sim/gtcp"
	_ "repro/internal/sim/lammps"
)

func main() {
	broker := flag.String("broker", "127.0.0.1:7777", "sbbroker address: host:port for tcp, socket path for uds or shm")
	procs := flag.Int("n", 1, "number of ranks for this component")
	queue := flag.Int("q", 0, "writer-side queue depth for published streams (0 = default)")
	ports := flag.Bool("ports", false, "print the component's declared stream ports and exit without running")
	verbose := flag.Bool("v", false, "log component diagnostics")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: sbcomp [flags] component arg...\n\ncomponents: %v\n\n", components.Names())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	comp, err := components.New(flag.Arg(0), flag.Args()[1:])
	if err != nil {
		log.Fatalf("sbcomp: %v", err)
	}

	if *ports {
		// Port introspection: what the workflow planner sees (the same
		// declarations `sbrun -explain` derives its dataflow edges from).
		pd, ok := comp.(sb.PortDeclarer)
		if !ok {
			log.Fatalf("sbcomp: component %q declares no ports", comp.Name())
		}
		for _, p := range pd.Ports() {
			if p.Array == "" {
				fmt.Printf("%-3s %s\n", p.Dir, p.Stream)
			} else {
				fmt.Printf("%-3s %s[%s]\n", p.Dir, p.Stream, p.Array)
			}
		}
		return
	}

	if *broker == "" {
		// A private in-process broker has no peers to rendezvous with —
		// the component would block forever on its streams.
		log.Fatalf("sbcomp: -broker must name a shared sbbroker")
	}
	fabric, err := flexpath.Open(flexpath.KindAuto, *broker)
	if err != nil {
		log.Fatalf("sbcomp: %v", err)
	}
	defer fabric.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	metrics := sb.NewMetrics(comp.Name())
	err = mpi.RunCtx(ctx, *procs, func(comm *mpi.Comm) error {
		env := &sb.Env{
			Comm:       comm,
			Transport:  fabric,
			Args:       flag.Args()[1:],
			QueueDepth: *queue,
			Metrics:    metrics,
		}
		if *verbose {
			env.Logf = log.Printf
		}
		return comp.Run(env)
	})
	if err != nil {
		log.Fatalf("sbcomp: %v", err)
	}
	steps := metrics.Steps()
	fmt.Printf("%s finished: %d ranks, %d steps, %d bytes in, %d bytes out\n",
		comp.Name(), *procs, len(steps), metrics.TotalBytesIn(), metrics.TotalBytesOut())
}
