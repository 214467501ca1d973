package main

// seam.go is the only file of the benchmark that imports packages of the
// system under test. Everything else in this directory speaks to the
// system through the aliases and thin functions below, so that a later
// benchmark issue can re-point the benchmark after an API refactor by
// editing this file alone. The seam deliberately stays on the narrow
// public surface: workflow.Run with Stage values, the two-method
// sb.Transport, adios.Writer/Reader, the flexpath constructors,
// streamlog.OpenStore and replay.Run. It does not import internal/bench.

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"

	"repro/internal/adios"
	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/ndarray"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/replay"
	"repro/internal/sb"
	"repro/internal/streamlog"
	"repro/internal/workflow"

	_ "repro/internal/sim/lammps" // registers the "lammps" driver
)

// Types of the system the benchmark's own components and decorator are
// written against.
type (
	Transport      = sb.Transport
	Component      = sb.Component
	Env            = sb.Env
	Comm           = mpi.Comm
	Stage          = workflow.Stage
	Result         = workflow.Result
	BlockWriter    = adios.BlockWriter
	BlockReader    = adios.BlockReader
	RefBlockWriter = adios.RefBlockWriter
	Buf            = pool.Buf
	Dim            = ndarray.Dim
	Box            = ndarray.Box
	Array          = ndarray.Array
	Tracer         = obs.Tracer
	Span           = obs.Span
	Histogram      = components.StepHistogram
	StreamTrace    = replay.StreamTrace
)

// Span kinds the layer fold reads (emitted by the system when a tracer
// is installed).
const (
	spanStageStep = obs.KindStageStep
	spanKernel    = obs.KindKernelTransform
	spanLogAppend = obs.KindLogAppend
	spanLogReplay = obs.KindLogReplay
)

// Wire kinds.
const (
	wireInproc = flexpath.KindInproc
	wireTCP    = flexpath.KindTCP
	wireUDS    = flexpath.KindUDS
	wireShm    = flexpath.KindShm
)

func newTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// runWorkflow launches the stages over t and waits for all of them.
func runWorkflow(ctx context.Context, t Transport, name string, stages []Stage, tr *Tracer) (*Result, error) {
	return workflow.Run(ctx, t, workflow.Spec{Name: name, Stages: stages}, workflow.Options{Tracer: tr})
}

// stage builds a registry-instantiated stage, the programmatic form of
// one aprun line.
func stage(component string, procs int, args ...string) Stage {
	return Stage{Component: component, Args: args, Procs: procs}
}

// own wraps one of the benchmark's own components as a stage.
func own(c Component, procs int) Stage { return Stage{Instance: c, Procs: procs} }

// lammpsStage is the LAMMPS proxy publishing particles x 5 on
// stream/array; stream "-" disables its output (the sim-only mode).
func lammpsStage(stream, array string, particles, steps int, seed int64, subcycles, procs int) Stage {
	return stage("lammps", procs, stream, array, strconv.Itoa(particles), strconv.Itoa(steps),
		strconv.FormatInt(seed, 10), strconv.Itoa(subcycles))
}

// aioStage is the hand-written all-in-one baseline of Table II. It
// returns the component so its histograms can be verified.
func aioStage(stream, array string, bins, procs int, names ...string) (Stage, func() []Histogram, error) {
	args := append([]string{stream, array, "1", strconv.Itoa(bins), "-"}, names...)
	c, err := components.NewAIO(args)
	if err != nil {
		return Stage{}, nil, err
	}
	return own(c, procs), c.(*components.AIO).Results, nil
}

// kernelStepMeans returns the mean per-rank active time per step, in
// step order, that the named system stage reported for itself.
func kernelStepMeans(res *Result, component string) []float64 {
	m := res.Metrics(component)
	if m == nil {
		return nil
	}
	steps := m.Steps()
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = s.MeanDur.Seconds() * 1e3
	}
	return out
}

// headerAttr names the attribute carrying a dimension's row names.
func headerAttr(dim string) string { return components.HeaderAttr(dim) }

func joinList(items []string) string { return adios.JoinList(items) }

// computeHistogram is the system's distributed histogram kernel, which
// the benchmark's sink calls collectively on its ranks.
func computeHistogram(c *Comm, local []float64, bins int) (Histogram, error) {
	return components.ComputeHistogram(c, local, bins)
}

func partitionAlong(shape []int, axis, nparts, part int) Box {
	return ndarray.PartitionAlong(shape, axis, nparts, part)
}

// fabric is one freshly started stream fabric: the transport components
// attach through, the broker behind it, and the wire actually in use.
type fabric struct {
	T      Transport
	Wire   string
	broker *flexpath.Broker
	store  *streamlog.Store
	close  []func()
}

// openFabric starts a fresh broker reachable over the wanted wire. dir
// is a private directory for sockets. Where AF_UNIX sockets are
// unavailable the uds wire falls back to tcp loopback; Wire records
// what was used.
func openFabric(wire, dir string) (*fabric, error) {
	b := flexpath.NewBroker()
	f := &fabric{broker: b, Wire: wire}
	switch wire {
	case wireInproc:
		f.T = sb.Fabric{T: flexpath.InProc{B: b}}
		return f, nil
	case wireUDS, wireShm:
		path := filepath.Join(dir, "b.sock")
		var srv *flexpath.Server
		var err error
		if wire == wireShm {
			srv, err = flexpath.NewShmServer(b, path, flexpath.ShmConfig{})
		} else {
			srv, err = flexpath.NewUnixServer(b, path)
		}
		if err == nil {
			return f.dial(wire, srv)
		}
		if wire == wireShm {
			return nil, err
		}
		f.Wire = wireTCP
		fallthrough
	case wireTCP:
		srv, err := flexpath.NewServer(b, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return f.dial(wireTCP, srv)
	}
	return nil, fmt.Errorf("unknown wire %q", wire)
}

func (f *fabric) dial(wire string, srv *flexpath.Server) (*fabric, error) {
	t, err := flexpath.Open(wire, srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	f.T = sb.Fabric{T: t}
	f.close = append(f.close, func() { t.Close(); srv.Close() })
	return f, nil
}

// observe installs tr on the broker so its layers emit spans.
func (f *fabric) observe(tr *Tracer) { f.broker.SetObserver(tr, nil) }

// attachLog mounts a durable stream log (no fsync) under dir on the
// fabric's broker. A positive retainBytes gives the log that retention
// budget, in segments of a quarter of it; zero keeps every step. Call
// before any component attaches.
func (f *fabric) attachLog(dir string, retainBytes int64) error {
	store, err := streamlog.OpenStore(dir, streamlog.Options{Fsync: streamlog.FsyncNone,
		SegmentBytes: retainBytes / 4, RetainBytes: retainBytes})
	if err != nil {
		return err
	}
	f.broker.AttachLog(store)
	f.store = store
	return nil
}

// Close drains the log (when one is attached) and stops the fabric.
func (f *fabric) Close(ctx context.Context) error {
	var err error
	if f.store != nil {
		err = f.broker.FlushLog(ctx)
		if cerr := f.store.Close(); err == nil {
			err = cerr
		}
	}
	for _, c := range f.close {
		c()
	}
	return err
}

// recording is a recorded log directory opened read-only for replay.
type recording struct{ src *flexpath.LogSource }

func openRecording(dir string) (*recording, error) {
	src, err := flexpath.OpenLogSource(dir)
	if err != nil {
		return nil, err
	}
	return &recording{src: src}, nil
}

func (r *recording) Close() error { return r.src.Close() }

// replayStage re-runs one stage offline against the recording and
// returns what it published, by stream name.
func (r *recording) replayStage(ctx context.Context, st Stage, tr *Tracer) (map[string]*StreamTrace, error) {
	res, err := replay.Run(ctx, replay.Config{Source: r.src, Tracer: tr}, st)
	if res == nil {
		return nil, err
	}
	return res.Captures, err
}

// readRecordedStream loads one recorded stream into memory.
func readRecordedStream(dir, stream string) (*StreamTrace, error) {
	return replay.ReadTrace(dir, stream)
}

// poolStats returns the buffer pool's cumulative gets, fresh
// allocations and recycles.
func poolStats() (gets, news, recycles int64) { return pool.StatsSnapshot() }

// The functions below expose single layers for the isolated,
// single-goroutine timings of a traced run.

func adiosEncodePayload(dst []byte, names []string, data [][]float64) []byte {
	return adios.AppendPayload(dst, names, data)
}

func adiosPayloadSize(names []string, data [][]float64) int { return adios.PayloadSize(names, data) }

func adiosDecodePayload(buf []byte) (map[string][]float64, error) { return adios.DecodePayload(buf) }

// adiosMetaRoundTrip encodes and decodes one block's metadata.
func adiosMetaRoundTrip(step int, name string, dims []Dim, box Box, attrs map[string]string) error {
	bm := &adios.BlockMeta{Step: step, Attrs: attrs,
		Vars: []adios.VarMeta{{Name: name, GlobalDims: dims, Box: box}}}
	_, err := adios.DecodeMeta(adios.EncodeMeta(bm))
	return err
}

func newArray(dims ...Dim) *Array { return ndarray.New(dims...) }

func arrayFrom(data []float64, dims ...Dim) (*Array, error) { return ndarray.FromData(data, dims...) }

func copyRegion(dst *Array, dstOff []int, src *Array, srcOff, counts []int) error {
	return ndarray.CopyRegion(dst, dstOff, src, srcOff, counts)
}

func dimReduce(a *Array, remove, grow int) (*Array, error) { return a.DimReduce(remove, grow) }

func selectIndices(a *Array, axis int, indices []int) (*Array, error) {
	return a.SelectIndices(axis, indices)
}

// runRanks runs fn on size goroutine ranks sharing one communicator.
func runRanks(size int, fn func(*Comm) error) error { return mpi.Run(size, fn) }

func allreduceSum(c *Comm, v float64) (float64, error) {
	return mpi.Allreduce(c, v, mpi.Sum[float64])
}

// magnitudeKernel runs the system's Magnitude transform on one block.
func magnitudeKernel(block *Array) (int, error) {
	m := &components.Magnitude{}
	gv := &adios.GlobalVar{Name: "v", Dims: block.Dims()}
	out, err := m.Transform(&sb.StepInput{Var: gv, Box: ndarray.WholeBox(block.Shape()), Block: block})
	if err != nil {
		return 0, err
	}
	return len(out.Data), nil
}

// streamLog is one stream's segment log, for the isolated append and
// read-view timings.
type streamLog struct {
	store *streamlog.Store
	lg    *streamlog.Log
}

func openStreamLog(dir, stream string, writers int) (*streamLog, error) {
	store, err := streamlog.OpenStore(dir, streamlog.Options{Fsync: streamlog.FsyncNone})
	if err != nil {
		return nil, err
	}
	lg, err := store.Log(stream)
	if err == nil {
		err = lg.SetConfig(streamlog.Config{WriterSize: writers, QueueDepth: 2})
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	return &streamLog{store: store, lg: lg}, nil
}

func (l *streamLog) Append(step int, metas, payloads [][]byte) error {
	return l.lg.Append(step, metas, payloads)
}

// ReadView reads one step through the zero-copy view path and returns
// the payload bytes it covered.
func (l *streamLog) ReadView(step int) (int, error) {
	_, payloads, release, err := l.lg.ReadStepView(step)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range payloads {
		n += len(p)
	}
	release()
	return n, nil
}

func (l *streamLog) Close() error { return l.store.Close() }
