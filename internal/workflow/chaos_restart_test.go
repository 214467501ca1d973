package workflow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/components"
	"repro/internal/fault"
	"repro/internal/flexpath"
	"repro/internal/obs"
	"repro/internal/obs/tracetest"
	"repro/internal/pool"
	"repro/internal/sb"
)

// opRelease names the reader-side step release, which package fault
// never fails.
const opRelease fault.Op = "release"

// scriptedFault fails one transport operation exactly once: op on stream
// by rank at step. For the attach ops, step counts the rank's attaches to
// the stream, from 1. A fault with after set first waits for that event
// (see scriptedTransport.event), which orders it against the rest of the
// run.
type scriptedFault struct {
	op     fault.Op
	stream string
	rank   int
	step   int
	after  string
}

// scriptedError is the injected failure: transient, so the supervisor
// restarts the stage.
type scriptedError struct{ f scriptedFault }

func (e *scriptedError) Error() string {
	return fmt.Sprintf("scripted transient failure: %s on %q rank %d step %d", e.f.op, e.f.stream, e.f.rank, e.f.step)
}

func (e *scriptedError) Transient() bool { return true }

// scriptedTransport wraps an sb.Transport and fails each scripted
// operation once. It also records the events faults can wait for:
// "publish <stream> <rank> <step>" once a publish is accepted, and
// "close <stream> <rank>" once a writer handle closes.
type scriptedTransport struct {
	inner sb.Transport

	mu       sync.Mutex
	faults   []scriptedFault
	fired    []bool
	attaches map[string]int
	events   map[string]chan struct{}
}

func newScripted(inner sb.Transport, faults ...scriptedFault) *scriptedTransport {
	return &scriptedTransport{inner: inner, faults: faults, fired: make([]bool, len(faults)),
		attaches: map[string]int{}, events: map[string]chan struct{}{}}
}

func (t *scriptedTransport) eventLocked(name string) chan struct{} {
	ch, ok := t.events[name]
	if !ok {
		ch = make(chan struct{})
		t.events[name] = ch
	}
	return ch
}

// event returns the channel closed once the named event has happened.
func (t *scriptedTransport) event(name string) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventLocked(name)
}

func (t *scriptedTransport) signal(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := t.eventLocked(fmt.Sprintf(format, args...))
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// fail returns the scripted error for an operation, once.
func (t *scriptedTransport) fail(op fault.Op, stream string, rank, step int) error {
	t.mu.Lock()
	hit := -1
	for i, f := range t.faults {
		if !t.fired[i] && f.op == op && f.stream == stream && f.rank == rank && f.step == step {
			t.fired[i], hit = true, i
			break
		}
	}
	t.mu.Unlock()
	if hit < 0 {
		return nil
	}
	f := t.faults[hit]
	if f.after != "" {
		select {
		case <-t.event(f.after):
		case <-time.After(10 * time.Second): // the test's assertions will tell
		}
	}
	return &scriptedError{f}
}

// unfired lists the faults the run never reached.
func (t *scriptedTransport) unfired() []scriptedFault {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []scriptedFault
	for i, f := range t.faults {
		if !t.fired[i] {
			out = append(out, f)
		}
	}
	return out
}

func (t *scriptedTransport) attach(kind, stream string, rank int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := fmt.Sprintf("%s %s %d", kind, stream, rank)
	t.attaches[key]++
	return t.attaches[key]
}

func (t *scriptedTransport) AttachWriter(stream string, rank, size, depth int) (adios.BlockWriter, error) {
	if err := t.fail(fault.OpAttachWriter, stream, rank, t.attach("w", stream, rank)); err != nil {
		return nil, err
	}
	bw, err := t.inner.AttachWriter(stream, rank, size, depth)
	if err != nil {
		return nil, err
	}
	return &scriptedWriter{BlockWriter: bw, t: t, stream: stream, rank: rank}, nil
}

func (t *scriptedTransport) AttachReader(stream string, rank, size int) (adios.BlockReader, error) {
	if err := t.fail(fault.OpAttachReader, stream, rank, t.attach("r", stream, rank)); err != nil {
		return nil, err
	}
	br, err := t.inner.AttachReader(stream, rank, size)
	if err != nil {
		return nil, err
	}
	return &scriptedReader{BlockReader: br, t: t, stream: stream, rank: rank}, nil
}

type scriptedWriter struct {
	adios.BlockWriter
	t      *scriptedTransport
	stream string
	rank   int
}

func (w *scriptedWriter) PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error {
	if err := w.t.fail(fault.OpPublish, w.stream, w.rank, step); err != nil {
		meta.Release()
		payload.Release()
		return err
	}
	if err := w.BlockWriter.PublishBlockRef(ctx, step, meta, payload); err != nil {
		return err
	}
	w.t.signal("publish %s %d %d", w.stream, w.rank, step)
	return nil
}

func (w *scriptedWriter) Close() error {
	err := w.BlockWriter.Close()
	w.t.signal("close %s %d", w.stream, w.rank)
	return err
}

type scriptedReader struct {
	adios.BlockReader
	t      *scriptedTransport
	stream string
	rank   int
}

func (r *scriptedReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	if err := r.t.fail(fault.OpStepMeta, r.stream, r.rank, step); err != nil {
		return nil, err
	}
	return r.BlockReader.StepMeta(ctx, step)
}

func (r *scriptedReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	if err := r.t.fail(fault.OpFetchBlock, r.stream, r.rank, step); err != nil {
		return nil, err
	}
	return r.BlockReader.FetchBlock(ctx, step, writerRank)
}

func (r *scriptedReader) ReleaseStep(step int) error {
	if err := r.t.fail(opRelease, r.stream, r.rank, step); err != nil {
		return err
	}
	return r.BlockReader.ReleaseStep(step)
}

// captureSink is a one-rank endpoint keeping every step of one array
// whole, in arrival order, so a duplicated, lost or renumbered step
// shows against a fault-free run.
type captureSink struct {
	stream, array string

	mu    sync.Mutex
	steps []capturedStep
}

type capturedStep struct {
	Step int
	Data []float64
}

func (c *captureSink) Name() string { return "capture" }

func (c *captureSink) Run(env *sb.Env) error {
	r, err := env.OpenReader(c.stream)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		a, err := r.ReadAll(env.Ctx(), c.array)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.steps = append(c.steps, capturedStep{info.Step, slices.Clone(a.Data())})
		c.mu.Unlock()
		if err := r.EndStep(); err != nil {
			return err
		}
	}
}

func (c *captureSink) captured() []capturedStep {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.steps)
}

// restartCase is one component under one scripted fault. build returns a
// fresh workflow and a function reading its outputs once it ran; the
// stage under test is Stages[0].
type restartCase struct {
	name      string
	component string // the stage under test's span Note
	steps     int    // input steps the stage runs
	fault     scriptedFault
	build     func(t *testing.T) (Spec, func() any)
}

// captured builds a workflow of the given stages, capturing each listed
// output stream's "data" array.
func captured(stages []Stage, outs ...string) (Spec, func() any) {
	sinks := make([]*captureSink, len(outs))
	for i, out := range outs {
		sinks[i] = &captureSink{stream: out, array: "data"}
		stages = append(stages, Stage{Instance: sinks[i], Procs: 1})
	}
	return Spec{Name: "restart", Stages: stages}, func() any {
		got := make([][]capturedStep, len(sinks))
		for i, s := range sinks {
			got[i] = s.captured()
		}
		return got
	}
}

func restartProducer(stream string, steps int) Stage {
	return Stage{Instance: &chaosProducer{rows: 12, cols: 3, steps: steps, seed: 4242, stream: stream}, Procs: 2}
}

// TestChaosComponentRestart fails one transport operation of a stage
// once and demands that the supervised restart leaves the stage's
// output exactly as a fault-free run's: same steps, same numbers, same
// data, and one settled stage.step span per (step, rank). The stages
// under test run one rank (two for the collective stats), so no rank
// re-reads a step a peer already finished and the span count is exact.
func TestChaosComponentRestart(t *testing.T) {
	recording := filepath.Join(t.TempDir(), "rec")
	rec := Spec{Name: "record", Stages: []Stage{
		restartProducer("in.fp", 6),
		{Component: "file-writer", Args: []string{"in.fp", "data", recording}, Procs: 2},
	}}
	if _, err := Run(context.Background(), transport(), rec, Options{}); err != nil {
		t.Fatalf("recording the file-reader input: %v", err)
	}

	cases := []restartCase{
		{name: "scale", component: "scale", steps: 6,
			fault: scriptedFault{op: fault.OpPublish, stream: "out.fp", step: 2},
			build: func(t *testing.T) (Spec, func() any) {
				return captured([]Stage{{Component: "scale", Args: []string{"in.fp", "data", "2.5", "-1", "out.fp", "data"}, Procs: 1},
					restartProducer("in.fp", 6)}, "out.fp")
			}},
		{name: "fork", component: "fork", steps: 6,
			fault: scriptedFault{op: fault.OpPublish, stream: "f2.fp", step: 2},
			build: func(t *testing.T) (Spec, func() any) {
				return captured([]Stage{{Component: "fork", Args: []string{"in.fp", "data", "f1.fp", "f2.fp"}, Procs: 1},
					restartProducer("in.fp", 6)}, "f1.fp", "f2.fp")
			}},
		{name: "step-sample", component: "step-sample", steps: 9,
			fault: scriptedFault{op: fault.OpStepMeta, stream: "in.fp", step: 4},
			build: func(t *testing.T) (Spec, func() any) {
				return captured([]Stage{{Component: "step-sample", Args: []string{"in.fp", "data", "3", "out.fp", "data"}, Procs: 1},
					restartProducer("in.fp", 9)}, "out.fp")
			}},
		{name: "concat", component: "concat", steps: 6,
			fault: scriptedFault{op: opRelease, stream: "in2.fp", step: 2},
			build: func(t *testing.T) (Spec, func() any) {
				return captured([]Stage{{Component: "concat", Args: []string{"in.fp", "data", "in2.fp", "data", "0", "out.fp", "data"}, Procs: 1},
					restartProducer("in.fp", 6), restartProducer("in2.fp", 6)}, "out.fp")
			}},
		{name: "file-reader", component: "file-reader", steps: 6,
			fault: scriptedFault{op: fault.OpPublish, stream: "out.fp", step: 2},
			build: func(t *testing.T) (Spec, func() any) {
				return captured([]Stage{{Component: "file-reader", Args: []string{recording, "out.fp"}, Procs: 1}}, "out.fp")
			}},
		{name: "stats-file", component: "stats", steps: 6,
			fault: scriptedFault{op: fault.OpStepMeta, stream: "in.fp", step: 3},
			build: func(t *testing.T) (Spec, func() any) {
				path := filepath.Join(t.TempDir(), "stats.txt")
				c, err := components.NewStats([]string{"in.fp", "data", path})
				if err != nil {
					t.Fatal(err)
				}
				st := c.(*components.Stats)
				spec := Spec{Name: "restart", Stages: []Stage{{Instance: st, Procs: 2}, restartProducer("in.fp", 6)}}
				return spec, func() any {
					text, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					return []any{st.Results(), string(text)}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, outputs := tc.build(t)
			if _, err := Run(context.Background(), transport(), spec, Options{}); err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			want := outputs()

			spec, outputs = tc.build(t)
			tr := newScripted(transport(), tc.fault)
			tracer := obs.NewTracer(0)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			spec.Restart = RestartPolicy{MaxRestarts: 2, Backoff: time.Millisecond, StepTimeout: 5 * time.Second}
			res, err := Run(ctx, tr, spec, Options{Tracer: tracer})
			if err != nil {
				t.Fatalf("run failed despite supervision: %v\n%s", err, Report(res))
			}
			if left := tr.unfired(); len(left) > 0 {
				t.Fatalf("faults never fired: %+v", left)
			}
			if got := res.Stages[0].Restarts; got != 1 {
				t.Fatalf("stage %s restarted %d times, want 1\n%s", tc.component, got, Report(res))
			}
			if got := outputs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("output after a restart differs from the fault-free run:\n got %v\nwant %v", got, want)
			}
			ranks := spec.Stages[0].Procs
			settled := func(s obs.Span) bool {
				return s.Kind == obs.KindStageStep && s.Note == tc.component && s.Err == ""
			}
			spans := tracetest.FromTracer(tracer)
			tracetest.ExactlyOncePer(t, spans, tracetest.StepRankKey, settled)
			tracetest.ExpectCount(t, spans, tc.steps*ranks, settled)
		})
	}
}

// TestChaosFinishedRankRestartAfterGroupEnd is the restart sequence in
// which a supervised stage used to fail although its output was whole.
// Scale's rank 0 succeeds in one attempt and closes its writer slot of
// chaos1.fp; rank 1 succeeds in a later attempt and its close ends the
// group. A third fault then fails rank 0 again, and in the attempt after
// it both ranks re-attach to the ended group. Each gets a spent handle
// at its end, runs out its input without publishing, and returns.
func TestChaosFinishedRankRestartAfterGroupEnd(t *testing.T) {
	prod := &chaosProducer{rows: 12, cols: 2, steps: 3, seed: 777}
	spec, st, ref := chaosSpec(t, prod)
	tr := newScripted(flexpath.NewInProc(),
		scriptedFault{op: fault.OpAttachWriter, stream: "chaos1.fp", rank: 0, step: 1, after: "publish chaos1.fp 1 1"},
		scriptedFault{op: fault.OpAttachReader, stream: "chaos0.fp", rank: 1, step: 2, after: "close chaos1.fp 0"},
		scriptedFault{op: fault.OpAttachReader, stream: "chaos0.fp", rank: 0, step: 3, after: "close chaos1.fp 1"},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec.Restart = RestartPolicy{MaxRestarts: 5, Backoff: time.Millisecond, StepTimeout: 5 * time.Second}
	res, err := Run(ctx, tr, spec, Options{})
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, Report(res))
	}
	if left := tr.unfired(); len(left) > 0 {
		t.Fatalf("faults never fired: %+v", left)
	}
	if got := res.Stages[1].Restarts; got != 3 {
		t.Fatalf("scale restarted %d times, want 3\n%s", got, Report(res))
	}
	assertChaosResults(t, st, prod.steps, ref)
}
