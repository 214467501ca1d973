package sb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/obs"
)

// Loop is the one step loop every streaming component runs through. A
// component attaches its inputs and outputs through the Loop and hands
// Run its per-step body; everything a supervised restart depends on is
// the loop's alone:
//
//   - the step number comes from the inputs' NextStep, so a re-attached
//     rank resumes where its reader group stands, never from a counter;
//   - with several inputs the loop runs the lowest NextStep. An input
//     already past it released that step after the step's outputs were
//     published, so the loop only releases the lagging inputs there and
//     runs no body;
//   - io.EOF on any input ends the loop, after releasing the steps the
//     other inputs have open;
//   - inputs are released only after the body returns, that is after
//     every output of the step is published (Step.Publish skips an
//     output the resumed writer already holds);
//   - Metrics and the stage.step span are recorded per step, the active
//     time excluding the wait for the inputs.
type Loop struct {
	env     *Env
	ins     []*adios.Reader
	streams []string // the inputs' stream names, for log lines
	closers []func() error
	parts   []loopPart
}

// loopPart is one component's identity inside the loop: a plain stage
// has one, a fused stage one per chained component.
type loopPart struct {
	name, stream string // the span's Note and Stream
	metrics      *Metrics
}

// NewLoop starts one rank of the named stage: it marks the stage started
// in env.Metrics. Close the loop when the rank is done.
func NewLoop(env *Env, name string) *Loop {
	return newLoop(env, []loopPart{{name: name, metrics: env.Metrics}})
}

func newLoop(env *Env, parts []loopPart) *Loop {
	for _, p := range parts {
		if p.metrics != nil {
			p.metrics.MarkStarted()
		}
	}
	return &Loop{env: env, parts: parts}
}

// Reader attaches the loop to an input stream.
func (l *Loop) Reader(stream string) (*adios.Reader, error) {
	r, err := l.env.OpenReader(stream)
	if err != nil {
		return nil, fmt.Errorf("%s: attaching reader to %q: %w", l.parts[0].name, stream, err)
	}
	l.AddReader(stream, r)
	return r, nil
}

// AddReader makes an already open reader an input of the loop, which
// closes it with the rest.
func (l *Loop) AddReader(stream string, r *adios.Reader) {
	if len(l.ins) == 0 && l.parts[0].stream == "" {
		l.parts[0].stream = stream
	}
	l.ins = append(l.ins, r)
	l.streams = append(l.streams, stream)
	l.closers = append(l.closers, r.Close)
}

// Writer attaches the loop to an output stream.
func (l *Loop) Writer(stream string) (*adios.Writer, error) {
	w, err := l.env.OpenWriter(stream)
	if err != nil {
		return nil, fmt.Errorf("%s: attaching writer to %q: %w", l.parts[0].name, stream, err)
	}
	l.closers = append(l.closers, w.Close)
	return w, nil
}

// Close closes every handle the loop attached, the last first, and marks
// the stage finished.
func (l *Loop) Close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
	l.closers = nil
	for _, p := range l.parts {
		if p.metrics != nil {
			p.metrics.MarkFinished()
		}
	}
}

// Step is one timestep as the loop hands it to a body.
type Step struct {
	// N is the step number, the lowest NextStep of the loop's inputs.
	N int
	// Ctx carries the step's stage.step span, so the fabric spans of the
	// step's reads and publishes nest under it.
	Ctx context.Context
	// Info is the metadata of each input's open step, in attach order.
	Info []*adios.StepInfo
	// BytesIn and BytesOut are the step's payload accounting for Metrics.
	BytesIn, BytesOut int64

	l     *Loop
	part  int
	span  obs.SpanID
	start int64
	begin time.Time
}

// Run drives the loop until an input ends (nil) or the body or the
// fabric fails. The body runs once per step on every rank; it returns
// errors without the stage and step, which the loop prefixes.
func (l *Loop) Run(body func(s *Step) error) error {
	s := &Step{l: l, Info: make([]*adios.StepInfo, len(l.ins))}
	for {
		n := l.ins[0].NextStep() // absolute: a re-attached reader resumes mid-stream
		for _, r := range l.ins[1:] {
			n = min(n, r.NextStep())
		}
		if eof, err := l.step(s, n, body); eof || err != nil {
			return err
		}
	}
}

// step runs step n: open every input's step, run the body (unless an
// input shows the step was already finished), release, account.
func (l *Loop) step(s *Step, n int, body func(s *Step) error) (eof bool, err error) {
	s.N, s.part = n, 0
	s.startPart()
	clear(s.Info)
	resumed := false
	for i, r := range l.ins {
		if r.NextStep() > n {
			resumed = true
			continue
		}
		info, berr := r.BeginStep(s.Ctx)
		if errors.Is(berr, io.EOF) {
			l.env.logf("%s rank %d: input stream %q ended after %d steps", l.parts[0].name, l.env.Comm.Rank(), l.streams[i], n)
			return true, l.release(s)
		}
		if berr != nil {
			err = berr
			break
		}
		s.Info[i] = info
	}
	s.begin = time.Now() // active time: excludes waiting for the producers
	if err == nil && !resumed {
		err = body(s)
	}
	if err == nil {
		err = l.release(s)
	}
	if err != nil {
		err = fmt.Errorf("%s: step %d: %w", l.parts[s.part].name, n, err)
	}
	s.endPart(err)
	return false, err
}

// release closes the step on every input that has it open.
func (l *Loop) release(s *Step) error {
	for i, r := range l.ins {
		if s.Info[i] != nil {
			if err := r.EndStep(); err != nil {
				return err
			}
		}
	}
	return nil
}

// startPart opens the current part's span and active-time clock. The
// span ID is allocated up front and carried down into every transport
// call through Ctx; the span itself is emitted once the part settles,
// successfully or not, so a trace never holds a child whose parent was
// lost to a failure.
func (s *Step) startPart() {
	env := s.l.env
	s.Ctx, s.span = env.Ctx(), 0
	if tr := env.Tracer; tr.Enabled() {
		s.span = tr.NextID()
		s.Ctx = obs.WithParent(s.Ctx, s.span)
		s.start = tr.Now()
	}
	s.begin = time.Now()
	s.BytesIn, s.BytesOut = 0, 0
}

// endPart emits the current part's stage.step span and, on success,
// records its Metrics sample.
func (s *Step) endPart(err error) {
	env, p := s.l.env, &s.l.parts[s.part]
	if tr := env.Tracer; tr.Enabled() {
		span := obs.Span{ID: s.span, Kind: obs.KindStageStep,
			Stream: p.stream, Step: s.N, Rank: env.Comm.Rank(), Peer: -1,
			Bytes: s.BytesIn, Epoch: env.Epoch, Note: p.name, Start: s.start}
		if err != nil {
			span.Err = err.Error()
		}
		tr.Emit(span)
	}
	if err == nil && p.metrics != nil {
		p.metrics.RecordStep(s.N, time.Since(s.begin), s.BytesIn, s.BytesOut)
	}
}

// nextPart settles the current part of a fused step and starts the next.
func (s *Step) nextPart() {
	s.endPart(nil)
	s.part++
	s.startPart()
}

// Var returns the named array of input i's open step.
func (s *Step) Var(i int, array string) (*adios.GlobalVar, error) {
	v, ok := s.Info[i].Var(array)
	if !ok {
		return nil, fmt.Errorf("stream %q has no array %q", s.l.streams[i], array)
	}
	return v, nil
}

// Partition returns this rank's box of v: an even split of the first
// axis not reserved.
func (s *Step) Partition(v *adios.GlobalVar, reserved ...int) (ndarray.Box, error) {
	axis, err := ChooseAxis(v.Shape(), reserved...)
	if err != nil {
		return ndarray.Box{}, err
	}
	comm := s.l.env.Comm
	return ndarray.PartitionAlong(v.Shape(), axis, comm.Size(), comm.Rank()), nil
}

// ReadBox reads a box of an array of input i's open step into the
// reader's step-scoped storage, valid until the step ends, and counts it
// in BytesIn.
func (s *Step) ReadBox(i int, array string, box ndarray.Box) (*ndarray.Array, error) {
	block, err := s.l.ins[i].ReadBoxScoped(s.Ctx, array, box)
	if err != nil {
		return nil, err
	}
	s.BytesIn += int64(block.Size() * 8)
	return block, nil
}

// Read reads this rank's partition of an array of input i (see
// Partition).
func (s *Step) Read(i int, array string) (*adios.GlobalVar, ndarray.Box, *ndarray.Array, error) {
	v, err := s.Var(i, array)
	if err != nil {
		return nil, ndarray.Box{}, nil, err
	}
	box, err := s.Partition(v)
	if err != nil {
		return nil, ndarray.Box{}, nil, err
	}
	block, err := s.ReadBox(i, array, box)
	if err != nil {
		return nil, ndarray.Box{}, nil, err
	}
	return v, box, block, nil
}

// Publish writes one block to w as output step out, exactly once: a
// rank resumed after a restart re-runs steps whose outputs its writer
// may already hold, and those are not published again. The attribute
// maps apply in order, later ones overriding.
func (s *Step) Publish(w *adios.Writer, out int, array string, dims []ndarray.Dim, box ndarray.Box, data []float64, attrs ...map[string]string) error {
	if w.Steps() > out {
		return nil
	}
	if err := w.BeginStep(); err != nil {
		return err
	}
	for _, m := range attrs {
		for k, v := range m {
			if err := w.SetAttribute(k, v); err != nil {
				return err
			}
		}
	}
	if err := w.Write(array, dims, box, data); err != nil {
		return err
	}
	return w.EndStep(s.Ctx)
}
