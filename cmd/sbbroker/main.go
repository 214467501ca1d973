// Command sbbroker serves a SmartBlock stream broker over TCP, the
// rendezvous point for workflows whose components run as separate OS
// processes (via a script's transport directive under sbrun, or sbcomp):
//
//	sbbroker [-transport tcp|uds|shm] [-addr :7777] [-drain 10s] [-metrics-addr 127.0.0.1:7778]
//	         [-admin-addr 127.0.0.1:7779]
//	         [-log-dir DIR] [-log-segment-bytes N] [-log-retain-steps N] [-log-retain-bytes N] [-log-fsync none|step]
//
// It prints the bound address and runs until interrupted. On SIGINT or
// SIGTERM it shuts down gracefully: it stops accepting connections,
// waits up to -drain for attached components to finish their streams,
// then severs whatever remains — and logs a per-stream post-mortem
// (writers, readers, queued steps, failures) so a wedged or failed
// workflow can be diagnosed after the fact.
//
// With -log-dir the broker journals every stream to a durable segmented
// log under that directory and, at startup, recovers any streams a
// previous broker left there — so a crashed broker can be relaunched on
// the same directory and the workflow resumes where it stopped. The
// companion knobs bound the log (segment roll-over size, retention by
// steps or bytes) and pick the fsync policy; see internal/streamlog.
//
// With -metrics-addr it also serves a debug HTTP endpoint: /metrics
// returns the fabric's counter snapshot as JSON (steps published and
// retired, bytes on the wire, pool hit rate, heartbeat misses), and
// /debug/pprof/ exposes the standard Go profiler, so a live broker can
// be inspected while a workflow runs against it.
//
// With -admin-addr the broker becomes a long-running multi-tenant
// service: the address serves the control-plane admin API (package
// controlplane) — tenant registration with quotas, workflow submission
// in the launch-script format, live status, cancellation, and graceful
// tenant eviction. sbctl is the companion client. Submitted workflows
// run inside the broker process over the in-process fabric, namespaced
// per tenant and submission, so their streams are also reachable from
// outside through the socket transport under their qualified names.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/flexpath"
	"repro/internal/obs"
	"repro/internal/streamlog"
)

func main() {
	transport := flag.String("transport", flexpath.KindTCP, "socket flavor to serve: tcp, uds (Unix-domain socket), or shm (UDS doorbell + shared-memory segment)")
	addr := flag.String("addr", "", "listen address: host:port for tcp (default 127.0.0.1:7777; port 0 picks a free port), socket path for uds/shm")
	drain := flag.Duration("drain", 10*time.Second, "how long to wait for open streams to drain on shutdown")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (registry snapshot) and /debug/pprof on this address")
	adminAddr := flag.String("admin-addr", "", "serve the multi-tenant control-plane admin API (tenants, workflow submission, eviction; see sbctl) on this address")
	logDir := flag.String("log-dir", "", "journal streams to a durable segmented log under this directory and recover them at startup")
	logSegmentBytes := flag.Int64("log-segment-bytes", 0, "log segment roll-over size in bytes (0 = default 64 MiB)")
	logRetainSteps := flag.Int("log-retain-steps", 0, "keep at least this many retired steps replayable (0 = keep all)")
	logRetainBytes := flag.Int64("log-retain-bytes", 0, "evict oldest retired segments while a stream's log exceeds this (0 = unbounded)")
	logFsync := flag.String("log-fsync", "none", "log durability: none (page cache) or step (fsync per record)")
	flag.Parse()

	broker := flexpath.NewBroker()
	broker.SetObserver(nil, obs.Default())
	var store *streamlog.Store
	if *logDir != "" {
		fsync, err := streamlog.ParseFsync(*logFsync)
		if err != nil {
			log.Fatalf("sbbroker: %v", err)
		}
		store, err = streamlog.OpenStore(*logDir, streamlog.Options{
			SegmentBytes: *logSegmentBytes,
			RetainSteps:  *logRetainSteps,
			RetainBytes:  *logRetainBytes,
			Fsync:        fsync,
		})
		if err != nil {
			log.Fatalf("sbbroker: %v", err)
		}
		broker.AttachLog(store)
		n, err := broker.Recover()
		if err != nil {
			log.Fatalf("sbbroker: recovering from %s: %v", *logDir, err)
		}
		if n > 0 {
			log.Printf("sbbroker: recovered %d stream(s) from %s", n, *logDir)
		}
	}
	var srv *flexpath.Server
	var err error
	switch *transport {
	case flexpath.KindTCP:
		listen := *addr
		if listen == "" {
			listen = "127.0.0.1:7777"
		}
		srv, err = flexpath.NewServer(broker, listen)
	case flexpath.KindUDS:
		if *addr == "" {
			log.Fatalf("sbbroker: -transport uds requires -addr /path/to.sock")
		}
		srv, err = flexpath.NewUnixServer(broker, *addr)
	case flexpath.KindShm:
		if *addr == "" {
			log.Fatalf("sbbroker: -transport shm requires -addr /path/to.sock")
		}
		srv, err = flexpath.NewShmServer(broker, *addr, flexpath.ShmConfig{})
	default:
		log.Fatalf("sbbroker: unknown -transport %q (want %s, %s, or %s)",
			*transport, flexpath.KindTCP, flexpath.KindUDS, flexpath.KindShm)
	}
	if err != nil {
		log.Fatalf("sbbroker: %v", err)
	}
	fmt.Printf("sbbroker listening on %s\n", srv.Addr())
	if *metricsAddr != "" {
		// net/http/pprof registered its handlers on the default mux;
		// adding /metrics there puts both behind one debug listener.
		http.Handle("/metrics", obs.Default().Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				log.Printf("sbbroker: metrics endpoint: %v", err)
			}
		}()
		fmt.Printf("sbbroker metrics on http://%s/metrics\n", *metricsAddr)
	}
	var cp *controlplane.Service
	if *adminAddr != "" {
		cp, err = controlplane.NewService(controlplane.Config{
			Transport: flexpath.InProc{B: broker},
			Broker:    broker,
			Registry:  obs.Default(),
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatalf("sbbroker: %v", err)
		}
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Fatalf("sbbroker: admin endpoint: %v", err)
		}
		go func() {
			if err := http.Serve(adminLn, cp.Handler()); err != nil {
				log.Printf("sbbroker: admin endpoint: %v", err)
			}
		}()
		fmt.Printf("sbbroker admin API on http://%s/v1/tenants\n", adminLn.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("sbbroker: received %s, draining streams for up to %s", s, *drain)
	if cp != nil {
		// Stop the control plane first: cancel in-process workflows so
		// their streams settle before the socket server drains.
		if cerr := cp.Close(); cerr != nil {
			log.Printf("sbbroker: control plane: %v", cerr)
		}
	}
	err = srv.Shutdown(*drain)
	logStreamStats(broker)
	if store != nil {
		// Drain the write-behind appender before closing: otherwise the
		// tail of the recording (late steps, stream end records) may
		// still sit in the append queue, and an offline replay would see
		// a clean run as truncated.
		flushCtx, cancel := context.WithTimeout(context.Background(), *drain)
		if ferr := broker.FlushLog(flushCtx); ferr != nil {
			log.Printf("sbbroker: flushing stream log: %v", ferr)
		}
		cancel()
		if cerr := store.Close(); cerr != nil {
			log.Printf("sbbroker: closing stream log: %v", cerr)
		}
	}
	if err != nil {
		log.Fatalf("sbbroker: %v", err)
	}
}

// logStreamStats emits the shutdown post-mortem: one line per stream.
func logStreamStats(broker *flexpath.Broker) {
	stats := broker.StreamStats()
	if len(stats) == 0 {
		log.Printf("sbbroker: no streams were created")
		return
	}
	for _, st := range stats {
		state := "open"
		switch {
		case st.Failed != "":
			state = "FAILED: " + st.Failed
		case st.Ended:
			state = "ended"
		}
		log.Printf("sbbroker: stream %-20s writers=%d/%d readers=%d/%d queued=%d published=%d minstep=%d %s",
			st.Name, st.WritersLive, st.WriterSize, st.ReadersLive, st.ReaderSize,
			st.QueuedSteps, st.StepsPublished, st.MinStep, state)
	}
}
