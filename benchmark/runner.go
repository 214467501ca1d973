package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// logRetainBytes is the retention budget of the durable_record
// workload's log: eight 6 MB steps, in 16 MB segments.
const logRetainBytes = 64 << 20

// repOptions vary one repetition of a workload.
type repOptions struct {
	warm, steps int     // steps discarded and steps measured
	tracer      *Tracer // non-nil: the system emits spans into it
	timed       bool    // install the timing decorator
	recordTo    string  // non-empty: journal into this directory and keep it
}

// rep is one repetition: a fresh fabric, one workflow run over it, and
// everything observed from outside while it ran.
type rep struct {
	w     *workload
	opts  repOptions
	rec   *recorder
	tt    *timedTransport
	res   *Result
	wire  string
	entry int64    // ns since rec.base when workflow.Run was entered
	exit  int64    // ns since rec.base when workflow.Run returned
	pool0 [3]int64 // pool gets, news, recycles before the fabric started
	pool1 [3]int64 // and after the workflow returned
	err   error    // workflow or teardown error

	// replay repetitions have no recorder; these carry their result.
	replayWall  time.Duration
	replaySetup time.Duration
	replayAlloc uint64
	replayBad   []string // per step: "" when the replayed output matches the recording
}

// runLive runs one repetition of a live workload. The context carries
// the stall deadline.
func (w *workload) runLive(ctx context.Context, in *input, seed int64, tmpRoot string, opts repOptions) *rep {
	total := opts.warm + opts.steps
	r := &rep{w: w, opts: opts}
	dir, err := os.MkdirTemp(tmpRoot, w.Name+"-")
	if err != nil {
		r.err = err
		return r
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	r.pool0[0], r.pool0[1], r.pool0[2] = poolStats()
	r.rec = newRecorder(total, w.SrcRanks, w.SinkRanks, opts.warm)
	rec := r.rec

	// Set-up starts here: everything from now until the first step is
	// published is what a user waits for before data flows.
	fab, err := openFabric(w.Wire, dir)
	if err != nil {
		r.err = err
		return r
	}
	r.wire = fab.Wire
	if w.Log {
		// A recording keeps every step; the durable workload runs the log
		// the way a long-lived broker does, with a retention budget. The
		// budget also bounds the page-cache footprint: on a virtual
		// machine, first-touch cost of an ever-growing file otherwise
		// drowns the append path being measured.
		logDir, retain := opts.recordTo, int64(0)
		if logDir == "" {
			logDir, retain = filepath.Join(dir, "log"), logRetainBytes
		}
		if err := fab.attachLog(logDir, retain); err != nil {
			fab.Close(ctx)
			r.err = err
			return r
		}
	}
	if opts.tracer != nil {
		fab.observe(opts.tracer)
	}
	p := w.build(in, rec, total, seed)
	t := fab.T
	if p.tapStream != "" {
		t = stampTransport{Transport: t, stream: p.tapStream, rec: rec}
	}
	if opts.timed {
		r.tt = newTimedTransport(t, p.srcStream, p.snk.stream, rec)
		t = r.tt
	}
	r.entry = rec.now()
	r.res, r.err = runWorkflow(ctx, t, w.Name, p.stages, opts.tracer)
	r.exit = rec.now()
	r.pool1[0], r.pool1[1], r.pool1[2] = poolStats()
	if err := fab.Close(ctx); err != nil && r.err == nil {
		r.err = fmt.Errorf("closing fabric: %w", err)
	}
	return r
}

// attempted and failed count the repetition's steps: a step fails when
// the sink never completed it (missing, or cut off by the deadline) or
// when its result differs from the reference.
func (r *rep) outcome() (attempted, failed int, why []string) {
	if r.rec == nil {
		attempted = len(r.replayBad)
		for step, bad := range r.replayBad {
			if bad != "" {
				failed++
				why = append(why, fmt.Sprintf("step %d: %s", step, bad))
			}
		}
		if r.err != nil && attempted == 0 {
			attempted, failed = r.opts.warm+r.opts.steps, r.opts.warm+r.opts.steps
		}
	} else {
		attempted = len(r.rec.done)
		for step, d := range r.rec.done {
			switch {
			case d == 0:
				failed++
				why = append(why, fmt.Sprintf("step %d: never reached the sink", step))
			case r.rec.bad[step] != "":
				failed++
				why = append(why, fmt.Sprintf("step %d: %s", step, r.rec.bad[step]))
			}
		}
	}
	if r.err != nil {
		why = append([]string{r.err.Error()}, why...)
		if failed == 0 {
			failed = 1 // a run that errors is never clean, even if every step verified
		}
	}
	if len(why) > 4 {
		why = append(why[:4], fmt.Sprintf("... and %d more", len(why)-4))
	}
	return attempted, failed, why
}

// complete reports whether every step reached the sink, so the
// repetition's timings are meaningful.
func (r *rep) complete() bool {
	if r.rec == nil {
		return r.err == nil
	}
	for _, d := range r.rec.done {
		if d == 0 {
			return false
		}
	}
	return true
}

// stepMS is the steady-state time per step: the time from the last
// warm-up step completing at the sink to the last measured step
// completing there, over the measured steps. (The median of the
// individual intervals is not used: steps complete in bursts when ranks
// outnumber cores, and the median interval then understates the time
// per step by a third on gtcp_chain and wanders twice as much.)
func (r *rep) stepMS() float64 {
	if r.rec == nil {
		return r.replayWall.Seconds() * 1e3 / float64(r.opts.warm+r.opts.steps)
	}
	done := r.rec.done
	return float64(done[len(done)-1]-done[r.opts.warm-1]) / 1e6 / float64(r.opts.steps)
}

// intervalsMS are the individual intervals between consecutive verified
// completions at the sink over the measured steps, for the percentiles
// printed beside step_ms.
func (r *rep) intervalsMS() []float64 {
	if r.rec == nil {
		return []float64{r.stepMS()}
	}
	out := make([]float64, 0, r.opts.steps)
	for k := r.opts.warm; k < len(r.rec.done); k++ {
		out = append(out, float64(r.rec.done[k]-r.rec.done[k-1])/1e6)
	}
	return out
}

// latencyMS is, per measured step, the time from the last writer rank
// stamping the step (just before EndStep) to the sink holding its
// verified result. A replay has no live producer; its latency is
// reported as its time per step so the metric set is uniform.
func (r *rep) latencyMS() []float64 {
	if r.rec == nil {
		return []float64{r.stepMS()}
	}
	out := make([]float64, 0, r.opts.steps)
	for k := r.opts.warm; k < len(r.rec.done); k++ {
		out = append(out, float64(r.rec.done[k]-slices.Max(r.rec.stamps[k]))/1e6)
	}
	return out
}

// allocKBPerStep is the heap allocated over the measured steps, per
// step.
func (r *rep) allocKBPerStep() float64 {
	if r.rec == nil {
		return float64(r.replayAlloc) / 1024 / float64(r.opts.warm+r.opts.steps)
	}
	return float64(r.rec.snapEnd.allocBytes-r.rec.snapWarm.allocBytes) / 1024 / float64(r.opts.steps)
}

// setupS is the time from starting the fabric to the first step being
// fully published (every writer rank's EndStep returned).
func (r *rep) setupS() float64 {
	if r.rec == nil {
		return r.replaySetup.Seconds()
	}
	return float64(slices.Max(r.rec.accepted[0])) / 1e9
}

// runReplay runs one repetition of the replay workload: open the
// recording (the set-up), replay the magnitude stage over it (timed),
// then compare what it published with the recorded stream, step by
// step and bit for bit.
func (w *workload) runReplay(ctx context.Context, dir string, recorded *StreamTrace, opts repOptions) *rep {
	r := &rep{w: w, opts: opts, wire: "log"}
	runtime.GC()
	t0 := time.Now()
	rc, err := openRecording(dir)
	if err != nil {
		r.err = err
		return r
	}
	defer rc.Close()
	r.replaySetup = time.Since(t0)
	before := readRuntime()
	t1 := time.Now()
	captures, err := rc.replayStage(ctx, magnitudeStage(w.MidRanks), opts.tracer)
	r.replayWall = time.Since(t1)
	r.replayAlloc = readRuntime().allocBytes - before.allocBytes
	if err != nil {
		r.err = err
		return r
	}
	r.replayBad = compareTraces(captures[velosStream], recorded, opts.warm+opts.steps)
	return r
}

// compareTraces checks got against want step by step; the result has
// one entry per expected step, empty where the step matches.
func compareTraces(got, want *StreamTrace, steps int) []string {
	bad := make([]string, steps)
	for i := range bad {
		switch {
		case want == nil || i >= len(want.Steps):
			bad[i] = "missing from the recording"
		case got == nil || i >= len(got.Steps):
			bad[i] = "missing from the replayed output"
		default:
			g, w := got.Steps[i], want.Steps[i]
			if g.Step != w.Step || len(g.Payloads) != len(w.Payloads) {
				bad[i] = "step number or writer count differs"
				continue
			}
			for rank := range w.Payloads {
				if !bytes.Equal(g.Metas[rank], w.Metas[rank]) || !bytes.Equal(g.Payloads[rank], w.Payloads[rank]) {
					bad[i] = fmt.Sprintf("writer rank %d differs from the recording", rank)
					break
				}
			}
		}
	}
	return bad
}

// deadline is how long a repetition of the given length may take before
// it is declared stalled: three times its calibrated time, scaled by
// its share of the full step count.
func (w *workload) deadline(opts repOptions) time.Duration {
	share := float64(opts.warm+opts.steps) / float64(w.total())
	d := time.Duration(3 * w.RepSeconds * share * float64(time.Second))
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// session is one workload being measured with one seed: its generated
// input and, for the replay workload, the recording made of it.
type session struct {
	w        *workload
	seed     int64
	tmpRoot  string
	in       *input
	prepareS float64

	recDir   string       // replay: where the recording lives
	recorded *StreamTrace // replay: the recorded magnitude output

	reps []*rep
}

// prepare generates the input and does the workload's untimed
// preparation.
func newSession(ctx context.Context, w *workload, seed int64, tmpRoot string) (*session, error) {
	s := &session{w: w, seed: seed, tmpRoot: tmpRoot}
	start := time.Now()
	if w.Family == famLAMMPS {
		if err := s.captureSim(ctx); err != nil {
			return nil, fmt.Errorf("%s: capturing the proxy's output: %w", w.Name, err)
		}
	} else {
		s.in = w.generate(seed)
	}
	if w.Replay {
		if err := s.record(ctx); err != nil {
			return nil, fmt.Errorf("%s: recording: %w", w.Name, err)
		}
	}
	s.prepareS = time.Since(start).Seconds()
	return s, nil
}

// captureSim runs the LAMMPS proxy once into a capture endpoint to
// learn the arrays it generates for this seed, then computes their
// expected histograms with the reference code. The proxy is
// deterministic for a seed and rank count, so the timed repetitions
// publish the same arrays.
func (s *session) captureSim(ctx context.Context) error {
	w := s.w
	fab, err := openFabric(wireInproc, "")
	if err != nil {
		return err
	}
	c := &capture{stream: dumpStream, array: atomsArray}
	stages := []Stage{
		lammpsStage(dumpStream, atomsArray, w.Rows, w.total(), s.seed, w.SubCycles, w.SrcRanks),
		own(c, 1),
	}
	ctx, cancel := context.WithTimeout(ctx, w.deadline(repOptions{warm: w.Warm, steps: w.Steps}))
	defer cancel()
	if _, err := runWorkflow(ctx, fab.T, w.Name+"/capture", stages, nil); err != nil {
		return err
	}
	if len(c.steps) != w.total() {
		return fmt.Errorf("captured %d steps, want %d", len(c.steps), w.total())
	}
	s.in = &input{variants: c.steps}
	s.in.reference(famLAMMPS, 5)
	return fab.Close(ctx)
}

// record makes the recording the replay workload reads: one full run of
// the bulk_inproc pipeline with the log attached, its outputs verified
// like any other repetition.
func (s *session) record(ctx context.Context) error {
	dir, err := os.MkdirTemp(s.tmpRoot, s.w.Name+"-rec-")
	if err != nil {
		return err
	}
	s.recDir = dir
	opts := repOptions{warm: s.w.Warm, steps: s.w.Steps, recordTo: dir}
	// The recording grows to the full run's bytes on fresh pages of the
	// temp filesystem, which can be many times slower than the timed
	// repetitions' bounded log; it is untimed, so the deadline is loose.
	rctx, cancel := context.WithTimeout(ctx, 10*s.w.deadline(opts))
	defer cancel()
	r := s.w.runLive(rctx, s.in, s.seed, s.tmpRoot, opts)
	if _, failed, why := r.outcome(); failed > 0 {
		return fmt.Errorf("the recorded run was not clean: %v", why)
	}
	s.recorded, err = readRecordedStream(dir, velosStream)
	return err
}

// Close removes what prepare left on disk.
func (s *session) Close() {
	if s.recDir != "" {
		os.RemoveAll(s.recDir)
	}
}

// run performs one repetition under its stall deadline and keeps it.
func (s *session) run(ctx context.Context, opts repOptions) *rep {
	ctx, cancel := context.WithTimeout(ctx, s.w.deadline(opts))
	defer cancel()
	var r *rep
	if s.w.Replay {
		r = s.w.runReplay(ctx, s.recDir, s.recorded, opts)
	} else {
		r = s.w.runLive(ctx, s.in, s.seed, s.tmpRoot, opts)
	}
	s.reps = append(s.reps, r)
	return r
}
