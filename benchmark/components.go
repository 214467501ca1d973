package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"
)

// The benchmark's own source and sink. They are the two ends of every
// workload, so each step is stamped when it enters the system and
// verified when it leaves it, by code the system does not contain.

// recorder holds one repetition's per-step observations. Slots are
// written by exactly one rank each and read only after the workflow
// has returned, so they need no lock.
type recorder struct {
	base     time.Time
	stamps   [][]int64 // [step][writer rank] ns since base, just before EndStep
	accepted [][]int64 // [step][writer rank] ns since base, EndStep returned
	srcBusy  [][]int64 // [step][writer rank] ns spent producing and staging
	done     []int64   // [step] ns since base, sink holds the verified result
	bad      []string  // [step] why the sink rejected it, "" when correct

	sinkReadNS   [][]int64 // [step][sink rank] ns inside the sink's BeginStep, ReadBox and EndStep
	sinkKernelNS [][]int64 // [step][sink rank] ns inside the histogram kernel
	pubNS        [][]int64 // [step][writer rank] source publish time seen by the timing decorator
	sinkNestedNS [][]int64 // [step][sink rank] transport time nested in the sink's adios calls

	warm     int         // steps before measurement starts
	snapWarm runtimeSnap // taken by the sink as the last warm-up step completes
	snapEnd  runtimeSnap // taken by the sink as the last step completes
}

func newRecorder(steps, writers, readers, warm int) *recorder {
	r := &recorder{base: time.Now(), warm: warm,
		done: make([]int64, steps), bad: make([]string, steps)}
	r.stamps = grid(steps, writers)
	r.accepted = grid(steps, writers)
	r.srcBusy = grid(steps, writers)
	r.pubNS = grid(steps, writers)
	r.sinkReadNS = grid(steps, readers)
	r.sinkKernelNS = grid(steps, readers)
	r.sinkNestedNS = grid(steps, readers)
	return r
}

func grid(steps, ranks int) [][]int64 {
	flat := make([]int64, steps*ranks)
	g := make([][]int64, steps)
	for i := range g {
		g[i] = flat[i*ranks : (i+1)*ranks]
	}
	return g
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// source is the zero-compute producer: each rank publishes its slab of
// a pre-generated global array, cycling through the variants so that
// consecutive steps never carry the same values. The slab is a
// sub-slice of the global array (the partition is along axis 0), so the
// source does no work of its own beyond the adios calls being measured.
type source struct {
	stream, array string
	dims          []Dim
	attrs         map[string]string
	variants      [][]float64
	steps         int
	rec           *recorder
}

func (s *source) Name() string { return "bench-source" }

func (s *source) Run(env *Env) error {
	w, err := env.OpenWriter(s.stream)
	if err != nil {
		return fmt.Errorf("bench-source: attaching writer to %q: %w", s.stream, err)
	}
	defer w.Close()
	for k, v := range s.attrs {
		w.SetStickyAttribute(k, v)
	}
	rank := env.Comm.Rank()
	shape := make([]int, len(s.dims))
	for i, d := range s.dims {
		shape[i] = d.Size
	}
	box := partitionAlong(shape, 0, env.Comm.Size(), rank)
	rowLen := 1
	for _, n := range shape[1:] {
		rowLen *= n
	}
	lo, hi := box.Offsets[0]*rowLen, (box.Offsets[0]+box.Counts[0])*rowLen
	for step := 0; step < s.steps; step++ {
		t0 := s.rec.now()
		data := s.variants[step%len(s.variants)][lo:hi]
		if err := w.BeginStep(); err != nil {
			return err
		}
		if err := w.Write(s.array, s.dims, box, data); err != nil {
			return fmt.Errorf("bench-source: step %d: %w", step, err)
		}
		stamp := s.rec.now()
		s.rec.srcBusy[step][rank] = stamp - t0
		s.rec.stamps[step][rank] = stamp
		if err := w.EndStep(env.Ctx()); err != nil {
			return fmt.Errorf("bench-source: step %d: %w", step, err)
		}
		s.rec.accepted[step][rank] = s.rec.now()
	}
	return nil
}

// sink is the verifying endpoint: its ranks read their partition of the
// final one-dimensional array, run the system's distributed histogram
// kernel over it, and rank 0 compares the result with the reference for
// that step and stamps the completion. It mirrors the step order of the
// system's own endpoint loop (read, reduce, release).
type sink struct {
	stream, array string
	bins          int
	expect        []refHistogram // by variant
	rec           *recorder
}

func (s *sink) Name() string { return "bench-sink" }

func (s *sink) Run(env *Env) error {
	r, err := env.OpenReader(s.stream)
	if err != nil {
		return fmt.Errorf("bench-sink: attaching reader to %q: %w", s.stream, err)
	}
	defer r.Close()
	rank, size := env.Comm.Rank(), env.Comm.Size()
	for step := 0; ; step++ {
		t0 := time.Now()
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("bench-sink: step %d: %w", step, err)
		}
		if step >= len(s.rec.done) {
			return fmt.Errorf("bench-sink: unexpected step %d past the %d the source publishes", step, len(s.rec.done))
		}
		v, ok := info.Var(s.array)
		if !ok {
			return fmt.Errorf("bench-sink: step %d has no array %q", step, s.array)
		}
		block, err := r.ReadBox(env.Ctx(), s.array, partitionAlong(v.Shape(), 0, size, rank))
		if err != nil {
			return fmt.Errorf("bench-sink: step %d: %w", step, err)
		}
		t1 := time.Now()
		h, err := computeHistogram(env.Comm, block.Data(), s.bins)
		if err != nil {
			return fmt.Errorf("bench-sink: step %d: %w", step, err)
		}
		t2 := time.Now()
		if err := r.EndStep(); err != nil {
			return fmt.Errorf("bench-sink: step %d: %w", step, err)
		}
		s.rec.sinkReadNS[step][rank] = int64(t1.Sub(t0) + time.Since(t2))
		s.rec.sinkKernelNS[step][rank] = int64(t2.Sub(t1))
		if rank != 0 {
			continue
		}
		if want := s.expect[step%len(s.expect)]; !want.equal(h) {
			s.rec.bad[step] = fmt.Sprintf("histogram differs from reference (got n=%d min=%g max=%g)", h.Total, h.Min, h.Max)
		}
		s.rec.done[step] = s.rec.now()
		switch step {
		case s.rec.warm - 1:
			s.rec.snapWarm = readRuntime()
		case len(s.rec.done) - 1:
			s.rec.snapEnd = readRuntime()
		}
	}
}

// capture is a one-rank endpoint that keeps a copy of every step of a
// stream. The sim_bound workload uses it once, untimed, to obtain the
// arrays the LAMMPS proxy generates for a seed, which the reference
// then analyses on its own.
type capture struct {
	stream, array string
	steps         [][]float64
}

func (c *capture) Name() string { return "bench-capture" }

func (c *capture) Run(env *Env) error {
	r, err := env.OpenReader(c.stream)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		_, err := r.BeginStep(env.Ctx())
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
		if err := r.EndStep(); err != nil {
			return err
		}
		c.steps = append(c.steps, a.Data())
	}
}

// stampTransport notes when each writer rank of one stream hands a step
// to the fabric. It exists for the sim_bound workload, whose producer
// is the system's own LAMMPS proxy and so cannot stamp its steps
// itself; every other stream and every reader passes through untouched.
type stampTransport struct {
	Transport
	stream string
	rec    *recorder
}

func (t stampTransport) AttachWriter(stream string, rank, size, depth int) (BlockWriter, error) {
	bw, err := t.Transport.AttachWriter(stream, rank, size, depth)
	if err != nil || stream != t.stream {
		return bw, err
	}
	return &stampWriter{BlockWriter: bw, rank: rank, rec: t.rec}, nil
}

type stampWriter struct {
	BlockWriter
	rank int
	rec  *recorder
}

func (w *stampWriter) mark(step int, start int64) {
	if step < len(w.rec.stamps) {
		w.rec.stamps[step][w.rank] = start
		w.rec.accepted[step][w.rank] = w.rec.now()
	}
}

func (w *stampWriter) PublishBlock(ctx context.Context, step int, meta, payload []byte) error {
	start := w.rec.now()
	err := w.BlockWriter.PublishBlock(ctx, step, meta, payload)
	w.mark(step, start)
	return err
}

func (w *stampWriter) PublishBlockRef(ctx context.Context, step int, meta, payload *Buf) error {
	start := w.rec.now()
	err := publishRef(ctx, w.BlockWriter, step, meta, payload)
	w.mark(step, start)
	return err
}

func (w *stampWriter) NextStep() int { return nextStepOf(w.BlockWriter) }

// publishRef hands pooled buffers to a wrapped writer handle, keeping
// the zero-copy path open when the handle has it. Without it the bytes
// are passed by value and the buffers left to the collector, because
// the transport may keep the slices.
func publishRef(ctx context.Context, bw BlockWriter, step int, meta, payload *Buf) error {
	if rw, ok := bw.(RefBlockWriter); ok {
		return rw.PublishBlockRef(ctx, step, meta, payload)
	}
	return bw.PublishBlock(ctx, step, meta.Bytes(), payload.Bytes())
}

// nextStepOf forwards the resume point of a wrapped handle, which the
// component framework probes for on every handle it is given.
func nextStepOf(handle any) int {
	if s, ok := handle.(interface{ NextStep() int }); ok {
		return s.NextStep()
	}
	return 0
}
