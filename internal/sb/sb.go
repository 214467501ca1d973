// Package sb is the SmartBlock component framework — the paper's primary
// contribution (§III). It defines what a generic, reusable in situ
// workflow component is in this reproduction:
//
//   - a Component is an SPMD body executed by every rank of its own
//     communicator (package mpi), configured entirely through run-time
//     string arguments — never recompiled per workflow;
//
//   - every rank receives an Env giving it the component's communicator,
//     the stream transport, its arguments, and a metrics collector;
//
//   - components exchange self-describing timesteps (package adios) over
//     named streams (package flexpath), discover the global shape of what
//     they receive, and partition it evenly across their ranks with
//     bounding-box selections.
//
// There is one map step loop, in kernel.go. It captures the shared shape
// of the paper's data-transformation components (Select, Magnitude,
// Dim-Reduce): read a partitioned block, transform it locally,
// republish. RunMap runs one kernel through it; a Fused stage (fuse.go)
// runs a chain of kernels through it back-to-back, handing blocks
// between them over the stage's communicator instead of a stream.
// Endpoint reductions (Histogram, Stats) share RunReduce (reduce.go).
// Components with other shapes (Fork, Concat, the all-in-one baseline)
// implement Component directly.
package sb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// ErrRescale is returned from a component's step loop when the
// supervisor's Env.Interrupt hook requests an elastic rescale: the rank
// stops at the current step boundary so its handles can be detached and
// the stage relaunched with a different rank count. It is a control
// signal, not a failure.
var ErrRescale = errors.New("sb: stage rescale requested")

// Transport is the stream fabric a component attaches to: the two
// attach methods of flexpath.Transport, whose handles the adios layer
// aliases. Every flexpath backend (InProc, the socket *Client, Router,
// LogSource) satisfies it as it is.
type Transport interface {
	// AttachWriter joins the writer group of a stream as rank of size,
	// with the given queue depth (0 = transport default).
	AttachWriter(stream string, rank, size, depth int) (adios.BlockWriter, error)
	// AttachReader joins the reader group of a stream as rank of size.
	AttachReader(stream string, rank, size int) (adios.BlockReader, error)
}

var _ Transport = flexpath.Transport(nil)

// Fabric passes a flexpath.Transport through as a Transport. Every
// flexpath.Transport already is one; Fabric exists only so the
// benchmark's seam, which constructs it, keeps compiling. It hides the
// wrapped transport's optional capabilities (flexpath.GroupResizer,
// flexpath.ReplayTransport), so elastic rescale and catch-up replay are
// off behind it: pass the flexpath.Transport itself instead.
type Fabric struct {
	T flexpath.Transport
}

// AttachWriter implements Transport.
func (f Fabric) AttachWriter(stream string, rank, size, depth int) (adios.BlockWriter, error) {
	return f.T.AttachWriter(stream, rank, size, depth)
}

// AttachReader implements Transport.
func (f Fabric) AttachReader(stream string, rank, size int) (adios.BlockReader, error) {
	return f.T.AttachReader(stream, rank, size)
}

// Env is the per-rank runtime environment of a component.
type Env struct {
	// Comm is the component's communicator; the rank runs as Comm.Rank()
	// of Comm.Size().
	Comm *mpi.Comm
	// Transport is the stream fabric shared by the whole workflow.
	Transport Transport
	// Args are the component's run-time arguments, exactly as they would
	// appear after the executable name in the paper's aprun lines.
	Args []string
	// QueueDepth configures writer-side buffering for streams this
	// component publishes (0 = transport default).
	QueueDepth int
	// Handles, when non-nil, routes this rank's transport handles through
	// the workflow supervisor's lifecycle (see HandleSet): closes after a
	// failure are deferred so the supervisor can detach (restart) or
	// crash (propagate) instead, and re-attached handles resume at the
	// transport's reported NextStep. Nil leaves handle lifecycle entirely
	// to the component — the unsupervised behavior.
	Handles *HandleSet
	// StepTimeout, when positive, bounds every blocking transport
	// operation of a managed handle (publish, step wait, fetch). It only
	// applies when Handles is set.
	StepTimeout time.Duration
	// Metrics, when non-nil, collects per-timestep measurements.
	Metrics *Metrics
	// Tracer, when non-nil, receives per-step spans (stage.step,
	// kernel.transform) from this rank, and its span IDs flow down into
	// the transport via the step context so fabric spans nest under the
	// stage's. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Registry, when non-nil, is the metrics registry this component's
	// collectors mirror into (see Metrics.BindRegistry).
	Registry *obs.Registry
	// Epoch is the supervised restart attempt this rank is running as
	// (0 = first incarnation). Stamped onto emitted spans so a trace can
	// distinguish pre- and post-restart work.
	Epoch int
	// Interrupt, when non-nil, is polled by step-loop components at each
	// step boundary (after finishing a step, before starting the next).
	// A non-nil return aborts the loop with that error — the elastic
	// rescale path returns ErrRescale here so the supervisor can detach
	// the stage cleanly between steps and relaunch it at a new size.
	Interrupt func() error
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// Ctx returns the cancellation context governing this rank.
func (e *Env) Ctx() context.Context { return e.Comm.Context() }

func (e *Env) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// OpenReader attaches this rank to a stream's reader group (sized to the
// component's communicator) and wraps it in the self-describing layer.
// Under a supervisor (Env.Handles set) the handle is managed — its
// lifecycle is settled by the supervisor after a failure — and resumes
// at the transport's reported NextStep after a supervised re-attach.
func (e *Env) OpenReader(stream string) (*adios.Reader, error) {
	br, err := e.Transport.AttachReader(stream, e.Comm.Rank(), e.Comm.Size())
	if err != nil {
		if e.Handles != nil {
			e.Handles.noteErr(err)
		}
		return nil, err
	}
	next := br.NextStep()
	if e.Handles != nil {
		br = e.Handles.manageReader(e, br)
	}
	return adios.NewReaderAt(br, next), nil
}

// OpenWriter attaches this rank to a stream's writer group (sized to the
// component's communicator) and wraps it in the self-describing layer.
func (e *Env) OpenWriter(stream string) (*adios.Writer, error) {
	return e.OpenWriterGroup(stream, nil, 0)
}

// OpenWriterGroup is OpenWriter with an optional ADIOS group declaration
// (writes are validated against it) and a default queue depth, normally
// the XML method's QUEUE_SIZE. Precedence for the depth: the Env's
// configured depth (the launch script's -q flag overrides the config at
// job-submission time), then the given default, then the transport
// default.
func (e *Env) OpenWriterGroup(stream string, group *adios.Group, depth int) (*adios.Writer, error) {
	if e.QueueDepth != 0 {
		depth = e.QueueDepth
	}
	bw, err := e.Transport.AttachWriter(stream, e.Comm.Rank(), e.Comm.Size(), depth)
	if err != nil {
		if e.Handles != nil {
			e.Handles.noteErr(err)
		}
		return nil, err
	}
	next := bw.NextStep()
	if e.Handles != nil {
		bw = e.Handles.manageWriter(e, bw)
	}
	return adios.NewWriterAt(bw, group, next), nil
}

// Component is a generic, reusable workflow building block. Run is the
// SPMD body: it executes once per rank, and the ranks coordinate through
// env.Comm and the streams they open. Configuration comes exclusively
// from env.Args so that a compiled component can serve any workflow
// (§IV: "There is no need to re-compile SmartBlock components when using
// them in different workflows").
type Component interface {
	// Name identifies the component kind (e.g. "select").
	Name() string
	// Run executes one rank of the component until its input streams end.
	Run(env *Env) error
}

// UsageError reports malformed component arguments, carrying the usage
// line that the paper presents for each component (Figs. 1–3).
type UsageError struct {
	Component string
	Usage     string
	Problem   string
}

func (e *UsageError) Error() string {
	return fmt.Sprintf("%s: %s (usage: %s %s)", e.Component, e.Problem, e.Component, e.Usage)
}
