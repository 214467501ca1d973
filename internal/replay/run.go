// Package replay re-runs workflow components offline against a
// recorded stream log — no live producers, no broker process, no
// workflow: the recording is the upstream. A replay run wires a
// component (or a connected subset of a plan) to a read-only
// flexpath.LogSource for its inputs and a capture Sink for its
// outputs, drives it through the ordinary sb/workflow machinery, and
// returns byte-exact traces of everything it published. Diff runs two
// variants over the same recording and reports where their outputs
// part ways (see Diff).
package replay

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/flexpath"
	"repro/internal/obs"
	"repro/internal/streamlog"
	"repro/internal/workflow"
)

// Config names the recording and the optional knobs of a replay run.
type Config struct {
	// LogDir is the recorded log directory to replay against. Ignored
	// when Source is set.
	LogDir string
	// Source is a pre-opened log source; the caller keeps ownership.
	// Lets one source serve several runs (diff A/B) without reopening.
	Source *flexpath.LogSource
	// OutDir, when non-empty, re-records the replayed component's
	// output streams as a fresh log directory there.
	OutDir string
	// Name labels the synthesized workflow ("replay" when empty).
	Name string

	Logf     func(format string, args ...any)
	Tracer   *obs.Tracer
	Registry *obs.Registry
}

// RunResult is what one replay run produced.
type RunResult struct {
	// Workflows holds each stage's inner run result, in the order the
	// stages were given (stages execute in dependency order, but the
	// caller indexes by its own order). Entries are nil for stages
	// never reached after an earlier stage failed.
	Workflows []*workflow.Result
	// Captures holds every output stream's trace by name.
	Captures map[string]*StreamTrace
	// Truncated lists input streams whose recording had no end record:
	// the replay consumed everything captured, but the live run's tail
	// is missing (broker crash or kill -9 during recording).
	Truncated []string
}

// Run replays stages against cfg's recording. Each stage runs to
// completion as its own single-stage workflow, in dependency order
// (producers before consumers, derived from the subset's own plan):
// offline there is no need for live co-scheduling, and sequential
// execution makes the subset deterministic by construction. A stage's
// input streams are served from an earlier stage's capture when the
// subset itself produced them, and from the recording otherwise; every
// output stream is captured (and re-recorded when OutDir is set).
//
// Stages through opaque components (no declared ports) run in the
// order given; their inputs resolve against captures dynamically, so
// list producers before consumers when replaying such a subset.
//
// The returned error wraps the first component failure; the RunResult
// is still populated as far as the run got.
func Run(ctx context.Context, cfg Config, stages ...workflow.Stage) (*RunResult, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("replay: no stages to run")
	}
	src := cfg.Source
	if src == nil {
		if cfg.LogDir == "" {
			return nil, fmt.Errorf("replay: no recording: set Config.LogDir or Config.Source")
		}
		var err error
		src, err = flexpath.OpenLogSource(cfg.LogDir)
		if err != nil {
			return nil, err
		}
		defer src.Close()
	}
	src.SetObserver(cfg.Tracer, cfg.Registry)

	name := cfg.Name
	if name == "" {
		name = "replay"
	}
	order, err := stageOrder(workflow.Spec{Name: name, Stages: stages})
	if err != nil {
		return nil, err
	}

	sink := NewSink()
	if cfg.OutDir != "" {
		store, err := streamlog.OpenStore(cfg.OutDir, streamlog.Options{})
		if err != nil {
			return nil, fmt.Errorf("replay: opening re-record dir: %w", err)
		}
		defer store.Close()
		sink.Record(store)
	}
	tr := &routing{src: src, sink: sink}

	out := &RunResult{Workflows: make([]*workflow.Result, len(stages))}
	finish := func(err error) (*RunResult, error) {
		out.Captures = sink.Traces()
		out.Truncated = src.Truncated()
		return out, err
	}
	for _, idx := range order {
		st := stages[idx]
		label := st.Component
		if label == "" && st.Instance != nil {
			label = st.Instance.Name()
		}
		spec := workflow.Spec{Name: fmt.Sprintf("%s/%s", name, label), Stages: []workflow.Stage{st}}
		res, err := workflow.Run(ctx, tr, spec, workflow.Options{
			Logf:     cfg.Logf,
			Tracer:   cfg.Tracer,
			Registry: cfg.Registry,
		})
		out.Workflows[idx] = res
		if err != nil {
			return finish(err)
		}
		if err := res.Err(); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}

// stageOrder returns the indices of the spec's stages in dependency
// order: producers before consumers, ties broken by the order given.
// Opaque components contribute no edges and keep their given position.
// A dataflow cycle inside the subset cannot be sequenced and errors.
func stageOrder(spec workflow.Spec) ([]int, error) {
	plan, err := workflow.BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	n := len(plan.Nodes)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range plan.Edges {
		if e.From == e.To {
			continue // self-loop: a stage republishing its input stream
		}
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	order := make([]int, 0, n)
	done := make([]bool, n)
	for len(order) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if !done[i] && indeg[i] == 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("replay: stages form a dataflow cycle; a cycle cannot be replayed stage by stage")
		}
		done[pick] = true
		order = append(order, pick)
		for _, to := range adj[pick] {
			indeg[to]--
		}
	}
	return order, nil
}

// routing steers each stream of a replay subset: reads are served from
// an earlier stage's completed capture when the subset itself produced
// the stream, from the recording otherwise; writes always go to the
// capture sink. Stages run one at a time, so any captured stream a
// later stage asks for is already complete.
type routing struct {
	src  *flexpath.LogSource
	sink *Sink
}

// AttachReader implements flexpath.Transport.
func (r *routing) AttachReader(stream string, rank, size int) (flexpath.ReaderHandle, error) {
	if tr := r.sink.completedTrace(stream); tr != nil {
		return newTraceReader(tr, rank, size)
	}
	return r.src.AttachReader(stream, rank, size)
}

// AttachWriter implements flexpath.Transport.
func (r *routing) AttachWriter(stream string, rank, size, depth int) (flexpath.WriterHandle, error) {
	return r.sink.AttachWriter(stream, rank, size, depth)
}

// Close implements flexpath.Transport (the source and sink are owned
// by Run).
func (r *routing) Close() error { return nil }

// traceReader serves a completed in-memory capture through the
// flexpath.ReaderHandle contract — how a replay subset's downstream
// stage consumes its upstream's fresh output. The trace is complete
// before the reader exists, so nothing ever blocks; past the last
// captured step readers see io.EOF, the graceful-end signal (a
// producer that crashed mid-replay already failed the whole run).
type traceReader struct {
	tr *StreamTrace

	mu     sync.Mutex
	pos    int
	closed bool
}

func newTraceReader(tr *StreamTrace, rank, size int) (*traceReader, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("replay: reader rank %d of %d out of range", rank, size)
	}
	return &traceReader{tr: tr}, nil
}

func (r *traceReader) NextStep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pos
}

func (r *traceReader) WriterSize(ctx context.Context) (int, error) {
	return r.tr.WriterSize, nil
}

func (r *traceReader) step(step int) (StepBlobs, error) {
	if r.closed {
		return StepBlobs{}, flexpath.ErrClosed
	}
	if step < 0 {
		return StepBlobs{}, fmt.Errorf("replay: negative step %d", step)
	}
	if step >= len(r.tr.Steps) {
		return StepBlobs{}, io.EOF
	}
	if step >= r.pos {
		r.pos = step + 1
	}
	return r.tr.Steps[step], nil
}

func (r *traceReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sb, err := r.step(step)
	if err != nil {
		return nil, err
	}
	return sb.Metas, nil
}

func (r *traceReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sb, err := r.step(step)
	if err != nil {
		return nil, err
	}
	if writerRank < 0 || writerRank >= len(sb.Payloads) {
		return nil, fmt.Errorf("replay: writer rank %d out of range for step %d", writerRank, step)
	}
	return sb.Payloads[writerRank], nil
}

func (r *traceReader) ReleaseStep(step int) error { return nil }

func (r *traceReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return nil
}

func (r *traceReader) Detach() error { return r.Close() }

var _ flexpath.Transport = (*routing)(nil)
var _ flexpath.ReaderHandle = (*traceReader)(nil)
