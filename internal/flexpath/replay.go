package flexpath

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/streamlog"
)

// ReplayReader is a catch-up reader: it serves a stream's historical
// steps from the durable segment log and hands off seamlessly to live
// tailing once it reaches the log head. Unlike a *Reader it is an
// observer — it does not join the reader group, does not gate step
// retirement, and any number may be open concurrently — so a re-analysis
// consumer started after N steps can replay 0..N without back-pressuring
// the live workflow.
//
// Provenance is observable: each step a ReplayReader serves is emitted
// exactly once as either a log.replay span (served from segment reads)
// or a replay.live span (served from the in-memory queue), so a trace
// proves both the handoff point and exactly-once delivery.
//
// Like the other rank handles, a ReplayReader is driven by one
// goroutine at a time.
type ReplayReader struct {
	b  *Broker
	s  *stream
	lg *streamlog.Log

	cache serveCache // guarded by b.mu
}

// OpenReaderFrom opens a catch-up reader on a stream, positioned at
// step from. Requires an attached log store — without one there is no
// history to replay. Steps evicted by the retention budget surface as
// ErrStepRetired; steps not yet published block like a live reader.
func (b *Broker) OpenReaderFrom(stream string, from int) (*ReplayReader, error) {
	if from < 0 {
		return nil, fmt.Errorf("flexpath: replay from negative step %d", from)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.logStore == nil {
		return nil, fmt.Errorf("flexpath: replay of %q requires a log store (run the broker with -log-dir)", stream)
	}
	lg, err := b.logStore.Log(stream)
	if err != nil {
		return nil, err
	}
	return &ReplayReader{b: b, s: b.getStream(stream), lg: lg, cache: newServeCache(from)}, nil
}

// NextStep returns this reader's position: the next step it has not
// released. Purely bookkeeping — a replay reader gates nothing.
func (r *ReplayReader) NextStep() int {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.cache.pos
}

// WriterSize blocks until the stream's writer group is known (live
// attach or recovery) and returns its size.
func (r *ReplayReader) WriterSize(ctx context.Context) (int, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.wait(ctx, func() bool { return r.cache.closed || r.s.writerSize > 0 || r.s.failed != nil }); err != nil {
		return 0, err
	}
	if r.cache.closed {
		return 0, ErrClosed
	}
	if r.s.writerSize > 0 {
		return r.s.writerSize, nil
	}
	return 0, r.s.failed
}

// ensure fills the serve cache for step, deciding provenance: the live
// queue if the step is complete in memory, otherwise the segment log if
// the step is below the durability watermark, otherwise it blocks until
// one of those becomes true (or the stream ends, fails, or ctx is
// done). Caller does not hold b.mu.
func (r *ReplayReader) ensure(ctx context.Context, step int) error {
	b := r.b
	b.mu.Lock()
	if r.cache.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	if r.cache.step == step {
		b.mu.Unlock()
		return nil
	}
	s := r.s
	memComplete := func() bool {
		st, ok := s.steps[step]
		return ok && st.complete()
	}
	err := b.wait(ctx, func() bool {
		if r.cache.closed || s.failed != nil || memComplete() || step < s.logged {
			return true
		}
		if s.logBroken && step < s.minStep {
			return true // lost to a broken log: unrecoverable, don't wait
		}
		return s.ended && step > s.lastStep
	})
	if err != nil {
		b.mu.Unlock()
		return err
	}
	if r.cache.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	if memComplete() {
		// Live serve: copy under the lock — a replay reader does not gate
		// retirement, so views of broker-held buffers could be recycled
		// out from under it.
		st := s.steps[step]
		metas := make([][]byte, len(st.metas))
		payloads := make([][]byte, len(st.payloads))
		var nbytes int64
		for i := range st.metas {
			metas[i] = append([]byte(nil), st.metas[i].Bytes()...)
			payloads[i] = append([]byte(nil), st.payloads[i].Bytes()...)
			nbytes += int64(len(metas[i]) + len(payloads[i]))
		}
		r.cache.fill(step, metas, payloads, nil)
		if tr := b.obs.tracer; tr.Enabled() {
			tr.Emit(obs.Span{Kind: obs.KindReplayLive, Parent: obs.ParentFrom(ctx),
				Stream: s.name, Step: step, Rank: -1, Peer: -1, Bytes: nbytes})
		}
		b.mu.Unlock()
		return nil
	}
	if step < s.logged {
		tracer := b.obs.tracer
		replayed := b.obs.logReplayed
		b.mu.Unlock()
		// Segment read outside the broker lock: replay I/O must not stall
		// the live fabric. Sealed segments serve zero-copy mmap views;
		// the active segment (and mmap-less platforms) serve copies.
		metas, payloads, release, nbytes, err := readLogStep(r.lg, step)
		if err != nil {
			return err
		}
		b.mu.Lock()
		if r.cache.closed {
			b.mu.Unlock()
			release()
			return ErrClosed
		}
		r.cache.fill(step, metas, payloads, release)
		b.mu.Unlock()
		if tracer.Enabled() {
			tracer.Emit(obs.Span{Kind: obs.KindLogReplay,
				Stream: s.name, Step: step, Rank: -1, Peer: -1, Bytes: nbytes})
		}
		replayed.Inc()
		return nil
	}
	if s.logBroken && step < s.minStep {
		b.mu.Unlock()
		return fmt.Errorf("%w: step %d lost to a failed stream log", ErrStepRetired, step)
	}
	if s.failed != nil {
		err := s.failed
		b.mu.Unlock()
		return err
	}
	b.mu.Unlock()
	return io.EOF
}

// readLogStep serves one step from a stream's segment log through the
// zero-copy view path, translating the log's eviction sentinel into the
// fabric's ErrStepRetired contract. This is the single serving path
// shared by the live catch-up reader (OpenReaderFrom) and the offline
// replay facade (LogSource): both kinds of replay read history through
// exactly the same code.
func readLogStep(lg *streamlog.Log, step int) (metas, payloads [][]byte, release func(), nbytes int64, err error) {
	metas, payloads, release, err = lg.ReadStepView(step)
	if err != nil {
		if errors.Is(err, streamlog.ErrEvicted) {
			return nil, nil, nil, 0, fmt.Errorf("%w: step %d evicted from log (replay horizon %d)",
				ErrStepRetired, step, lg.FirstStep())
		}
		return nil, nil, nil, 0, err
	}
	for i := range metas {
		nbytes += int64(len(metas[i]) + len(payloads[i]))
	}
	return metas, payloads, release, nbytes, nil
}

// serveCache is the one-step serve cache and read position shared by
// the two journal readers, ReplayReader and logReader: ensure fills it,
// StepMeta and FetchBlock read from it, ReleaseStep and Close drop it.
// Live serves are copies; log serves are mmap views of sealed segments
// when the platform allows (release returns the view, and the log keeps
// the mapping alive until then) and fresh allocations otherwise, so
// nothing the broker retires can invalidate the cache. It has no lock
// of its own: the owning reader holds its lock around every call, which
// keeps ReplayReader's b.mu → log lock order (the one the write-behind
// appender establishes).
type serveCache struct {
	pos      int // next unreleased step (bookkeeping only; nothing gates on it)
	closed   bool
	step     int // -1 when empty
	metas    [][]byte
	payloads [][]byte
	release  func() // non-nil while the cache holds a log view
}

func newServeCache(pos int) serveCache { return serveCache{pos: pos, step: -1} }

// fill caches step, returning any previously held view to the log.
func (c *serveCache) fill(step int, metas, payloads [][]byte, release func()) {
	c.drop()
	c.step, c.metas, c.payloads, c.release = step, metas, payloads, release
}

// drop empties the cache, returning any held view to the log.
func (c *serveCache) drop() {
	if rel := c.release; rel != nil {
		c.release = nil
		rel()
	}
	c.step, c.metas, c.payloads = -1, nil, nil
}

// block returns one writer rank's cached payload.
func (c *serveCache) block(writerRank int) ([]byte, error) {
	if writerRank < 0 || writerRank >= len(c.payloads) {
		return nil, fmt.Errorf("flexpath: writer rank %d out of range [0,%d)", writerRank, len(c.payloads))
	}
	return c.payloads[writerRank], nil
}

// releaseStep advances the position past step and drops the cache if it
// holds step or an earlier one.
func (c *serveCache) releaseStep(step int) error {
	if c.closed {
		return ErrClosed
	}
	if step+1 > c.pos {
		c.pos = step + 1
	}
	if c.step >= 0 && c.step <= step {
		c.drop()
	}
	return nil
}

// close marks the reader closed and drops the cache, reporting whether
// this call was the one that closed it.
func (c *serveCache) close() bool {
	if c.closed {
		return false
	}
	c.closed = true
	c.drop()
	return true
}

// StepMeta blocks until the step is servable and returns every writer
// rank's metadata blob. The returned slices are reader-owned and stay
// valid until the step is released.
func (r *ReplayReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	if err := r.ensure(ctx, step); err != nil {
		return nil, err
	}
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.cache.metas, nil
}

// StepMetaRefs is StepMeta returning wrapped references, satisfying the
// same contract the TCP server uses for live readers. The refs share
// StepMeta's lifetime: a live serve is a reader-owned copy, but a log
// serve may be an mmap view of a sealed segment, so they are valid only
// until the step is released.
func (r *ReplayReader) StepMetaRefs(ctx context.Context, step int) ([]*pool.Buf, error) {
	metas, err := r.StepMeta(ctx, step)
	if err != nil {
		return nil, err
	}
	out := make([]*pool.Buf, len(metas))
	for i, m := range metas {
		out[i] = pool.Wrap(m)
	}
	return out, nil
}

// FetchBlock returns one writer rank's payload for the step.
func (r *ReplayReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	if err := r.ensure(ctx, step); err != nil {
		return nil, err
	}
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.cache.block(writerRank)
}

// FetchBlockRef is FetchBlock returning a wrapped reference.
func (r *ReplayReader) FetchBlockRef(ctx context.Context, step, writerRank int) (*pool.Buf, error) {
	p, err := r.FetchBlock(ctx, step, writerRank)
	if err != nil {
		return nil, err
	}
	return pool.Wrap(p), nil
}

// ReleaseStep advances the reader's position past step and drops the
// serve cache. Nothing in the broker gates on it — release exists so a
// replay consumer drives the same step loop as a live one.
func (r *ReplayReader) ReleaseStep(step int) error {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.cache.releaseStep(step)
}

// Close ends the replay session. Idempotent.
func (r *ReplayReader) Close() error {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if r.cache.close() {
		r.b.cond.Broadcast()
	}
	return nil
}

// Detach is Close: an observer holds no group slot to keep.
func (r *ReplayReader) Detach() error { return r.Close() }
