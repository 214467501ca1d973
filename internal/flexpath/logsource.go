package flexpath

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/streamlog"
)

// LogSource is the offline replay facade: a Transport whose streams are
// a recorded log directory instead of a live fabric. There is no broker
// process behind it — AttachReader serves steps straight from the
// segment logs through the same readLogStep path the live catch-up
// reader uses, and AttachWriter refuses, because a recording has
// exactly one side left to play.
//
// Semantics mirror a live stream whose writers already finished:
// WriterSize answers immediately from the journaled config, every step
// from the retention horizon to the log head is served in order, and
// the head reads as io.EOF. A recording that stops without an end
// record (crash, kill, a log copied mid-run) still replays its full
// valid prefix; the missing end is reported through Truncated so a
// caller can warn rather than silently treat a partial run as whole.
//
// Steps below the retention horizon surface as ErrStepRetired with the
// horizon in the message, matching OpenReaderFrom.
type LogSource struct {
	store *streamlog.Store
	own   bool // Close closes the store only if this source opened it

	mu        sync.Mutex
	tracer    *obs.Tracer
	replayed  *obs.Counter
	truncated map[string]bool
	closed    bool
}

// OpenLogSource opens the recorded store rooted at dir read-only. The
// directory must exist and is never mutated: torn tails stay on disk,
// and the source serves exactly the valid prefix of each stream.
func OpenLogSource(dir string) (*LogSource, error) {
	store, err := streamlog.OpenStore(dir, streamlog.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	return &LogSource{store: store, own: true, truncated: make(map[string]bool)}, nil
}

// NewLogSource wraps an already-open store (typically read-only). The
// caller keeps ownership: Close leaves the store open.
func NewLogSource(store *streamlog.Store) *LogSource {
	return &LogSource{store: store, truncated: make(map[string]bool)}
}

// SetObserver wires the source to a tracer and/or metrics registry.
// Each served step emits a log.replay span and increments the
// log.replayed_steps counter — the same provenance signals a live
// catch-up replay produces, so traces from offline re-analysis read
// identically. The registry also gains the log.views leak gauge.
func (ls *LogSource) SetObserver(tr *obs.Tracer, reg *obs.Registry) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.tracer = tr
	if reg != nil {
		ls.replayed = reg.Counter("log.replayed_steps")
		store := ls.store
		reg.RegisterFunc("log.views", func() int64 { return int64(store.OpenViews()) })
	}
}

// Streams returns the names of every recorded stream, sorted.
func (ls *LogSource) Streams() []string { return ls.store.Streams() }

// Store returns the underlying read-only store.
func (ls *LogSource) Store() *streamlog.Store { return ls.store }

// Truncated returns the recorded streams whose replay reached a head
// with no end record — recordings that stop mid-run. Populated as
// readers hit the condition, so it is complete once every reader has
// drained. Sorted.
func (ls *LogSource) Truncated() []string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	out := make([]string, 0, len(ls.truncated))
	for name := range ls.truncated {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (ls *LogSource) markTruncated(stream string) {
	ls.mu.Lock()
	ls.truncated[stream] = true
	ls.mu.Unlock()
}

// AttachWriter implements Transport by refusing: a recording is not
// writable, and a replayed component's outputs belong in a capture sink
// (internal/replay), not back in the source directory.
func (ls *LogSource) AttachWriter(stream string, rank, size, depth int) (WriterHandle, error) {
	return nil, fmt.Errorf("flexpath: log source is read-only; stream %q cannot accept writers (capture outputs with a replay sink)", stream)
}

// AttachReader implements Transport: an independent reader over the
// recorded stream, positioned at the retention horizon. Readers gate
// nothing and any number may be open; rank and size are accepted for
// interface parity but each handle independently sees every step, the
// same pub/sub contract a live reader group has.
func (ls *LogSource) AttachReader(stream string, rank, size int) (ReaderHandle, error) {
	ls.mu.Lock()
	closed := ls.closed
	ls.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	lg, err := ls.store.Log(stream)
	if err != nil {
		return nil, err
	}
	if _, ok := lg.Config(); !ok {
		return nil, fmt.Errorf("flexpath: recorded stream %q journaled no config (empty recording)", stream)
	}
	return &logReader{ls: ls, lg: lg, stream: stream, cache: newServeCache(lg.FirstStep())}, nil
}

// OpenReaderFrom implements ReplayTransport: a reader positioned at an
// arbitrary recorded step, so plan-subset replays resuming mid-log use
// the same capability-checked entry point live transports offer.
func (ls *LogSource) OpenReaderFrom(stream string, from int) (ReaderHandle, error) {
	if from < 0 {
		return nil, fmt.Errorf("flexpath: replay from negative step %d", from)
	}
	r, err := ls.AttachReader(stream, 0, 1)
	if err != nil {
		return nil, err
	}
	lr := r.(*logReader)
	if from > lr.cache.pos {
		lr.cache.pos = from
	}
	return lr, nil
}

// Close releases the source. If the source opened its store
// (OpenLogSource), the store closes too, unmapping any segments; a
// store passed to NewLogSource stays open for its owner.
func (ls *LogSource) Close() error {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return nil
	}
	ls.closed = true
	own := ls.own
	ls.mu.Unlock()
	if own {
		return ls.store.Close()
	}
	return nil
}

// logReader is one replay reader over a recorded stream. Like every
// rank handle it is driven by one goroutine at a time; its serve cache
// holds the log's mmap view until release, exactly as ReplayReader's
// does.
type logReader struct {
	ls     *LogSource
	lg     *streamlog.Log
	stream string

	mu    sync.Mutex
	cache serveCache // guarded by mu
}

// NextStep returns the next unreleased step — the resume point.
func (r *logReader) NextStep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cache.pos
}

// WriterSize returns the recorded writer-group size immediately: a
// recording's config is journaled before its first step, so there is
// nothing to wait for.
func (r *logReader) WriterSize(ctx context.Context) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache.closed {
		return 0, ErrClosed
	}
	cfg, ok := r.lg.Config()
	if !ok {
		return 0, fmt.Errorf("flexpath: recorded stream %q journaled no config", r.stream)
	}
	return cfg.WriterSize, nil
}

// ensure fills the serve cache for step. At the log head it returns
// io.EOF whether or not the recording ended gracefully — a truncated
// recording's valid prefix is still worth replaying — and records the
// truncation on the source for the caller to surface. Caller holds
// r.mu.
func (r *logReader) ensure(ctx context.Context, step int) error {
	if r.cache.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.cache.step == step {
		return nil
	}
	if step >= r.lg.NextStep() {
		if _, ended := r.lg.Ended(); !ended {
			r.ls.markTruncated(r.stream)
		}
		return io.EOF
	}
	metas, payloads, release, nbytes, err := readLogStep(r.lg, step)
	if err != nil {
		return err
	}
	r.cache.fill(step, metas, payloads, release)
	r.ls.mu.Lock()
	tracer, replayed := r.ls.tracer, r.ls.replayed
	r.ls.mu.Unlock()
	if tracer.Enabled() {
		tracer.Emit(obs.Span{Kind: obs.KindLogReplay, Parent: obs.ParentFrom(ctx),
			Stream: r.stream, Step: step, Rank: -1, Peer: -1, Bytes: nbytes})
	}
	replayed.Inc()
	return nil
}

// StepMeta serves every writer rank's metadata blob for the step. The
// slices stay valid until the step is released.
func (r *logReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensure(ctx, step); err != nil {
		return nil, err
	}
	return r.cache.metas, nil
}

// FetchBlock serves one writer rank's payload for the step.
func (r *logReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensure(ctx, step); err != nil {
		return nil, err
	}
	return r.cache.block(writerRank)
}

// ReleaseStep advances past step and drops the serve cache, returning
// the underlying view. Nothing gates on it.
func (r *logReader) ReleaseStep(step int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cache.releaseStep(step)
}

// Close ends the replay session, returning any held view. Idempotent.
func (r *logReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache.close()
	return nil
}

// Detach is Close: an observer holds no group slot to keep.
func (r *logReader) Detach() error { return r.Close() }

// Interface conformance.
var (
	_ Transport       = (*LogSource)(nil)
	_ ReplayTransport = (*LogSource)(nil)
	_ ReaderHandle    = (*logReader)(nil)
)
