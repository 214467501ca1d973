// Package flexpath implements the publish/subscribe, stream-based,
// asynchronous transport SmartBlock workflows are wired with (FlexPath in
// the paper, CCGrid'14). Named streams connect an M-rank writer group to
// an N-rank reader group:
//
//   - Writers publish one block per rank per timestep. A timestep becomes
//     visible to readers once all M writer ranks have published it.
//   - Writer-side buffering: a stream holds up to QueueDepth unreleased
//     timesteps; publishing beyond that blocks. This is the mechanism that
//     overlaps a producer's compute with downstream I/O (§IV, point 4).
//   - Readers block until the writer group exists and the requested
//     timestep is complete — so workflow components "can be launched in
//     any order" (§IV, point 2).
//   - A timestep is retired (and queue space reclaimed) once all N reader
//     ranks have released it.
//
// The package offers two transports with the same per-rank API: the
// in-process Broker in this file (ranks are goroutines sharing memory),
// and for multi-process deployments a socket Server with one Client
// (Dial for TCP, DialUnix for a Unix socket, whose broker may add a
// shared-memory payload segment).
//
// Fault model: every rank handle ends in exactly one of three ways.
//
//   - Close — graceful retirement. A writer group that fully closes ends
//     the stream (readers see io.EOF); a closed reader rank stops gating
//     step retirement so departed consumers cannot wedge writers.
//   - Detach — supervised suspension. The rank releases its group slot
//     without ending or failing the stream; a replacement handle may
//     re-attach later and resume from NextStep. Used by the workflow
//     supervisor to restart a crashed-but-retryable component without
//     losing buffered timesteps.
//   - Crash — writer loss. The stream is marked failed; readers blocked
//     on incomplete steps get ErrWriterLost instead of waiting forever,
//     while steps that completed before the crash stay drainable. The
//     in-process broker learns of crashes by this explicit notification;
//     the TCP server infers them from heartbeat-lease expiry or an
//     unclean disconnect.
//
// Block payloads are opaque []byte; the self-describing encoding layered
// on top lives in package adios.
package flexpath

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/streamlog"
)

// DefaultQueueDepth is the writer-side buffer capacity, in timesteps,
// used when a writer attaches with depth 0.
const DefaultQueueDepth = 2

// Common protocol errors.
var (
	// ErrClosed is returned by operations on a closed writer or reader.
	ErrClosed = errors.New("flexpath: stream handle closed")
	// ErrStepRetired is returned when a reader asks for a timestep that
	// the full reader group already released.
	ErrStepRetired = errors.New("flexpath: timestep already retired")
	// ErrWriterLost is returned by reader operations on a stream whose
	// writer group lost a rank mid-stream (crash, lease expiry, unclean
	// disconnect). It is distinct from io.EOF: the stream did not end, it
	// failed, and retrying against the same stream cannot succeed.
	ErrWriterLost = errors.New("flexpath: writer lost mid-stream")
)

// Stats summarizes transport activity, for benchmarks and tests.
type Stats struct {
	StepsPublished int   // fully published timesteps across all streams
	BlocksFetched  int   // FetchBlock calls served
	BytesPublished int64 // payload + metadata bytes accepted
	BytesFetched   int64 // payload bytes served to readers
}

// StreamStat is a post-mortem snapshot of one stream's broker-side
// state, logged by sbbroker on shutdown.
type StreamStat struct {
	Name           string
	WriterSize     int // declared group size (0 = no writer group yet)
	ReaderSize     int
	WritersLive    int // handles currently attached
	ReadersLive    int
	QueuedSteps    int // buffered, unretired timesteps
	StepsPublished int // fully published timesteps over the stream's life
	MinStep        int // lowest unretired step
	Ended          bool
	Failed         string // non-empty once a writer was lost
}

// stepState is one buffered timestep of one stream. Blocks are held as
// refcounted buffers: the broker owns one reference from publish until
// retirement, and hands the same storage to every reader of the fan-out
// (borrowed for the life of the step, or retained via the *Refs
// accessors for uses that may outlive it, like a TCP response write).
type stepState struct {
	metas    []*pool.Buf
	payloads []*pool.Buf
	// size is the writer group size this step was published under. It is
	// the step's own completion denominator: after an elastic group
	// resize (see resize.go) the stream's writerSize may change, but
	// already-buffered complete steps keep their original block count and
	// must stay readable as published.
	size     int
	pubCount int
	released map[int]bool // reader ranks that released this step
}

// complete reports whether every writer rank of the step's group
// published its block.
func (st *stepState) complete() bool {
	return st.size > 0 && st.pubCount == st.size
}

// free drops the broker's references on every stored block, recycling
// pooled storage. Caller must have removed the step from the stream.
func (st *stepState) free() {
	for _, b := range st.metas {
		b.Release()
	}
	for _, b := range st.payloads {
		b.Release()
	}
}

// stream is the broker-side state of one named stream.
type stream struct {
	name       string
	queueDepth int

	writerSize int // 0 until the writer group attaches
	readerSize int // 0 until the reader group attaches

	writerLive []bool // per writer rank: a handle is currently attached
	writerDone []bool // per writer rank: closed gracefully

	writersClosed  int   // count of writerDone
	lastByRank     []int // per writer rank: next step it will publish
	ended          bool
	lastStep       int   // valid once ended: highest common fully-published step
	failed         error // non-nil once a writer was lost; wraps ErrWriterLost
	minStep        int   // lowest unretired step
	steps          map[int]*stepState
	stepsPublished int

	readerLive   []bool
	readerClosed map[int]bool // reader ranks that departed gracefully
	readerNext   []int        // per reader rank: next step it has not released

	// Durable-log state (zero and inert unless the broker has a log
	// store attached; see log.go). logged is the durability watermark:
	// steps below it are framed to the stream's segment log, and
	// retirement — the point pooled buffers recycle — never overtakes
	// it. logQueue/logBusy drive the per-stream write-behind appender;
	// logBroken records a disk failure, after which the stream degrades
	// to non-durable operation instead of wedging its writers.
	logged    int
	logQueue  []logJob
	logBusy   bool
	logBroken bool
}

func (s *stream) liveWriters() int {
	n := 0
	for _, l := range s.writerLive {
		if l {
			n++
		}
	}
	return n
}

func (s *stream) liveReaders() int {
	n := 0
	for _, l := range s.readerLive {
		if l {
			n++
		}
	}
	return n
}

// Broker is the in-process rendezvous point for named streams. One Broker
// is shared by every component of a workflow; it is safe for concurrent
// use by any number of rank goroutines.
type Broker struct {
	mu       sync.Mutex
	cond     *sync.Cond
	streams  map[string]*stream
	stats    Stats
	obs      brokerObs
	logStore *streamlog.Store // nil = no durability (see AttachLog)
	// tenants holds the registered tenant namespaces (quotas, byte
	// accounting, eviction state); see tenant.go. Unregistered
	// namespaces pay one nil-map test per attach/publish.
	tenants map[string]*tenantState
}

// brokerObs is the broker's observability hookup: a tracer for
// per-step spans and registry instruments resolved once at SetObserver
// time, so the hot path pays one nil test (tracing off) or one atomic
// op (metrics on) per event — never a map lookup.
type brokerObs struct {
	tracer      *obs.Tracer
	reg         *obs.Registry         // kept for log metrics registered at AttachLog
	steps       *obs.Counter          // timesteps fully published
	retired     *obs.Counter          // timesteps retired (storage recycled)
	blocks      *obs.Counter          // FetchBlock calls served
	bytesPub    *obs.Counter          // meta+payload bytes accepted
	bytesFetch  *obs.Counter          // payload bytes served
	hbMisses    *obs.Counter          // writer lease expiries (TCP server only)
	logReplayed *obs.Counter          // historical steps served from the log
	queuedSteps *obs.Gauge            // buffered, unretired timesteps, all streams
	tenant      map[string]*tenantObs // tenant-tagged counters, lazily cached
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	b := &Broker{streams: make(map[string]*stream)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// SetObserver wires the broker to a tracer and/or metrics registry
// (either may be nil). Call before attaching handles; registry
// instruments land under the "fabric." prefix.
func (b *Broker) SetObserver(tr *obs.Tracer, reg *obs.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.obs.tracer = tr
	b.obs.reg = reg
	if reg != nil {
		b.obs.steps = reg.Counter("fabric.steps_published")
		b.obs.retired = reg.Counter("fabric.steps_retired")
		b.obs.blocks = reg.Counter("fabric.blocks_fetched")
		b.obs.bytesPub = reg.Counter("fabric.bytes_published")
		b.obs.bytesFetch = reg.Counter("fabric.bytes_fetched")
		b.obs.hbMisses = reg.Counter("fabric.heartbeat_misses")
		b.obs.logReplayed = reg.Counter("log.replayed_steps")
		b.obs.queuedSteps = reg.Gauge("fabric.queued_steps")
	}
	b.registerLogMetricsLocked()
}

// Stats returns a snapshot of transport counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// StreamStats returns a per-stream snapshot, sorted by stream name.
func (b *Broker) StreamStats() []StreamStat {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]StreamStat, 0, len(b.streams))
	for _, s := range b.streams {
		st := StreamStat{
			Name:           s.name,
			WriterSize:     s.writerSize,
			ReaderSize:     s.readerSize,
			WritersLive:    s.liveWriters(),
			ReadersLive:    s.liveReaders(),
			QueuedSteps:    len(s.steps),
			StepsPublished: s.stepsPublished,
			MinStep:        s.minStep,
			Ended:          s.ended,
		}
		if s.failed != nil {
			st.Failed = s.failed.Error()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (b *Broker) getStream(name string) *stream {
	s, ok := b.streams[name]
	if !ok {
		s = &stream{name: name, steps: make(map[int]*stepState), readerClosed: make(map[int]bool)}
		b.streams[name] = s
		if ts := b.tenantOf(name); ts != nil {
			ts.streams++
		}
	}
	return s
}

// wait blocks on the broker condition until pred holds or ctx is done.
// The caller must hold b.mu; wait returns holding it.
func (b *Broker) wait(ctx context.Context, pred func() bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		defer stop()
	}
	for !pred() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		b.cond.Wait()
	}
	return ctx.Err()
}

// Writer is one writer rank's handle on a stream.
type Writer struct {
	b      *Broker
	s      *stream
	rank   int
	closed bool
}

// AttachWriter joins the writer group of the named stream as the given
// rank of size ranks. Every rank of the group must attach with the same
// size and queue depth; depth 0 selects DefaultQueueDepth. A stream has
// exactly one writer group for its lifetime, but a rank slot whose
// handle closed or detached may be re-occupied (supervised restart); the
// new handle resumes publishing at NextStep.
func (b *Broker) AttachWriter(stream string, rank, size, depth int) (*Writer, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("flexpath: invalid writer rank %d of %d for stream %q", rank, size, stream)
	}
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	if depth < 1 {
		return nil, fmt.Errorf("flexpath: queue depth must be >= 1, got %d", depth)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	_, exists := b.streams[stream]
	if err := b.admitAttach(stream, depth, !exists, true); err != nil {
		return nil, err
	}
	s := b.getStream(stream)
	if s.writerSize == 0 {
		s.writerSize = size
		s.queueDepth = depth
		s.lastByRank = make([]int, size)
		s.writerLive = make([]bool, size)
		s.writerDone = make([]bool, size)
	} else if s.writerSize != size {
		return nil, fmt.Errorf("flexpath: stream %q writer group size conflict: %d vs %d", stream, size, s.writerSize)
	} else if s.queueDepth == 0 {
		// The group size was pre-declared by a resize before any writer
		// attached; the first attach still picks the depth.
		s.queueDepth = depth
	} else if s.queueDepth != depth {
		return nil, fmt.Errorf("flexpath: stream %q queue depth conflict: %d vs %d", stream, depth, s.queueDepth)
	}
	if s.failed != nil {
		return nil, s.failed
	}
	if s.ended {
		return nil, fmt.Errorf("flexpath: stream %q writer group already closed", stream)
	}
	if s.writerLive[rank] {
		return nil, fmt.Errorf("flexpath: stream %q writer rank %d already attached", stream, rank)
	}
	if s.writerDone[rank] {
		// Revive a gracefully closed slot for a supervised restart.
		s.writerDone[rank] = false
		s.writersClosed--
	}
	s.writerLive[rank] = true
	b.cond.Broadcast()
	return &Writer{b: b, s: s, rank: rank}, nil
}

// NextStep returns the step this rank will publish next — the resume
// point for a handle re-attached after a detach.
func (w *Writer) NextStep() int {
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	return w.s.lastByRank[w.rank]
}

// PublishBlock queues this rank's block for the given timestep. Steps
// must be published in order 0,1,2,… per rank. The call blocks while the
// stream's queue window is full (asynchronous buffering), returning when
// the block is accepted — not when it is consumed. The broker stores the
// slices without copying; the caller must not mutate them after publish.
func (w *Writer) PublishBlock(ctx context.Context, step int, meta, payload []byte) error {
	return w.PublishBlockRef(ctx, step, pool.Wrap(meta), pool.Wrap(payload))
}

// PublishBlockRef is PublishBlock with ownership transfer: the broker
// takes both references (consuming them even on error), holds the blocks
// for the step's fan-out, and recycles pooled storage when the step
// retires. This is the zero-copy publish path every adios.Writer takes.
func (w *Writer) PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error {
	err := w.publishRef(ctx, step, meta, payload)
	if err != nil {
		meta.Release()
		payload.Release()
	}
	return err
}

func (w *Writer) publishRef(ctx context.Context, step int, meta, payload *pool.Buf) error {
	b := w.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	s := w.s
	if s.failed != nil {
		return s.failed
	}
	if step != s.lastByRank[w.rank] {
		return fmt.Errorf("flexpath: stream %q writer rank %d published step %d, expected %d",
			s.name, w.rank, step, s.lastByRank[w.rank])
	}
	nbytes := int64(meta.Len() + payload.Len())
	// Tenant admission: quota rejections fail fast (retryable) rather
	// than park the writer, and an eviction sealing the namespace must
	// also unblock writers already parked on the queue window.
	if err := b.admitPublish(s, nbytes); err != nil {
		return err
	}
	// Block while the queue window [minStep, minStep+depth) excludes step.
	err := b.wait(ctx, func() bool {
		return w.closed || s.failed != nil || b.tenantEvicting(s.name) || step < s.minStep+s.queueDepth
	})
	if err != nil {
		return err
	}
	if w.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	if err := b.admitPublish(s, nbytes); err != nil {
		return err
	}
	st, ok := s.steps[step]
	if !ok {
		st = &stepState{
			metas:    make([]*pool.Buf, s.writerSize),
			payloads: make([]*pool.Buf, s.writerSize),
			size:     s.writerSize,
			released: make(map[int]bool),
		}
		s.steps[step] = st
		b.obs.queuedSteps.Add(1)
	}
	st.metas[w.rank] = meta
	st.payloads[w.rank] = payload
	st.pubCount++
	s.lastByRank[w.rank] = step + 1
	b.tenantAccountPublish(s, nbytes, st.complete())
	b.stats.BytesPublished += nbytes
	b.obs.bytesPub.Add(nbytes)
	if tr := b.obs.tracer; tr.Enabled() {
		tr.Emit(obs.Span{Kind: obs.KindWriterPublish, Parent: obs.ParentFrom(ctx),
			Stream: s.name, Step: step, Rank: w.rank, Peer: -1,
			Bytes: nbytes, Gen: payload.Gen()})
	}
	if st.complete() {
		s.stepsPublished++
		b.stats.StepsPublished++
		b.obs.steps.Inc()
		if tr := b.obs.tracer; tr.Enabled() {
			var tot int64
			for _, p := range st.payloads {
				tot += int64(p.Len())
			}
			tr.Emit(obs.Span{Kind: obs.KindBrokerStep, Stream: s.name, Step: step,
				Rank: -1, Peer: -1, Bytes: tot})
		}
		// Hand the completed step to the write-behind appender before any
		// retirement decision: the durability watermark gates retireHead,
		// so the pooled buffers cannot recycle until the step is framed to
		// the segment log.
		b.logEnqueueStep(s, step, st)
		// If the whole reader group has already departed, completed steps
		// retire immediately so the writer queue never wedges.
		for s.retireHead(b) {
		}
	}
	b.cond.Broadcast()
	return nil
}

// Close retires this writer rank gracefully. When every rank of the
// group has closed, the stream ends at the highest timestep all ranks
// published; readers see io.EOF beyond it. Close is idempotent: closing
// an already-closed handle is a no-op returning nil, so concurrent
// cancellation paths cannot double-decrement the group's refcounts.
func (w *Writer) Close() error {
	b := w.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	s := w.s
	s.writerLive[w.rank] = false
	if !s.writerDone[w.rank] {
		s.writerDone[w.rank] = true
		s.writersClosed++
	}
	if s.writersClosed == s.writerSize && !s.ended {
		last := s.lastByRank[0]
		for _, n := range s.lastByRank[1:] {
			if n < last {
				last = n
			}
		}
		s.ended = true
		s.lastStep = last - 1
		b.logEnqueueEnd(s, s.lastStep)
	}
	b.cond.Broadcast()
	return nil
}

// Detach releases this rank's slot without closing or failing the
// stream: buffered steps stay buffered, the stream does not end, and a
// replacement handle may re-attach and resume at NextStep. This is the
// supervised-restart path; a detached rank that never re-attaches leaves
// its peers blocked, so only a supervisor that will either re-attach or
// eventually Crash/Close the stream should use it.
func (w *Writer) Detach() error {
	b := w.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.s.writerLive[w.rank] = false
	b.cond.Broadcast()
	return nil
}

// Crash reports this writer rank lost (component crash, lease expiry).
// The stream is marked failed: readers blocked on incomplete steps — and
// the group's surviving writers — get ErrWriterLost instead of waiting
// forever, while steps completed before the crash stay drainable. Crash
// on an already-closed handle is a no-op.
func (w *Writer) Crash(cause error) error {
	b := w.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	s := w.s
	s.writerLive[w.rank] = false
	if s.failed == nil && !s.ended {
		if cause == nil {
			cause = errors.New("writer crashed")
		}
		s.failed = fmt.Errorf("%w: stream %q writer rank %d: %v", ErrWriterLost, s.name, w.rank, cause)
	}
	b.cond.Broadcast()
	return nil
}

// Reader is one reader rank's handle on a stream.
type Reader struct {
	b      *Broker
	s      *stream
	rank   int
	closed bool
}

// AttachReader joins the reader group of the named stream as the given
// rank of size ranks. The stream need not exist yet — attaching creates
// it, and subsequent reads block until a writer group appears (launch-
// order independence). A stream has exactly one reader group, but a rank
// slot whose handle closed or detached may be re-occupied (supervised
// restart); the new handle should resume consuming at NextStep.
func (b *Broker) AttachReader(stream string, rank, size int) (*Reader, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("flexpath: invalid reader rank %d of %d for stream %q", rank, size, stream)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	_, exists := b.streams[stream]
	if err := b.admitAttach(stream, 0, !exists, false); err != nil {
		return nil, err
	}
	s := b.getStream(stream)
	if s.readerSize == 0 {
		s.readerSize = size
		s.readerLive = make([]bool, size)
		s.readerNext = make([]int, size)
	} else if s.readerSize != size {
		return nil, fmt.Errorf("flexpath: stream %q reader group size conflict: %d vs %d", stream, size, s.readerSize)
	}
	if s.readerLive[rank] {
		return nil, fmt.Errorf("flexpath: stream %q reader rank %d already attached", stream, rank)
	}
	s.readerLive[rank] = true
	delete(s.readerClosed, rank) // revive: this rank gates retirement again
	// The handle resumes at the group's common step (NextStep) and re-reads
	// any step it released before detaching, so it gates those steps again:
	// otherwise the first peer to release one retires it while this rank
	// still has to read it.
	resume := s.resumeStep()
	s.readerNext[rank] = resume
	for step, st := range s.steps {
		if step >= resume {
			delete(st.released, rank)
		}
	}
	b.cond.Broadcast()
	return &Reader{b: b, s: s, rank: rank}, nil
}

// NextStep returns the safe resume point for a handle re-attached after
// a detach: the lowest step not yet released by every rank of the reader
// group. Restarted groups resume from a common step so collective
// components stay aligned; steps a rank already released are simply
// re-read (attaching made the rank gate them again).
func (r *Reader) NextStep() int {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	return r.s.resumeStep()
}

// resumeStep is the reader group's common resume point. Caller holds the
// broker lock.
func (s *stream) resumeStep() int {
	next := 0
	for i, n := range s.readerNext {
		if i == 0 || n < next {
			next = n
		}
	}
	if next < s.minStep {
		// Stale bookkeeping from a rank that closed without releasing:
		// steps below the window start are retired and unrecoverable, so
		// they cannot be a resume point.
		next = s.minStep
	}
	return next
}

// WriterSize blocks until the writer group attaches and returns its size.
func (r *Reader) WriterSize(ctx context.Context) (int, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.wait(ctx, func() bool { return r.closed || r.s.writerSize > 0 || r.s.failed != nil }); err != nil {
		return 0, err
	}
	if r.closed {
		return 0, ErrClosed
	}
	if r.s.writerSize > 0 {
		return r.s.writerSize, nil
	}
	return 0, r.s.failed
}

// StepMeta blocks until the given timestep is fully published and returns
// each writer rank's metadata blob, indexed by writer rank. It returns
// io.EOF once the stream has ended before reaching step, and ErrWriterLost
// if a writer crashed before completing it; steps fully published before
// a crash remain readable.
//
// The returned slices are views of broker-held (possibly pooled)
// storage: they are valid until this rank releases or closes — after
// that the step may retire and the storage recycle.
func (r *Reader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	st, err := r.stepMetaLocked(ctx, step)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(st.metas))
	for i, m := range st.metas {
		out[i] = m.Bytes()
	}
	if tr := b.obs.tracer; tr.Enabled() {
		tr.Emit(obs.Span{Kind: obs.KindReaderMeta, Parent: obs.ParentFrom(ctx),
			Stream: r.s.name, Step: step, Rank: r.rank, Peer: -1})
	}
	return out, nil
}

// StepMetaRefs is StepMeta returning retained references: each blob
// stays valid until the caller releases it, even if the step retires
// underneath (used by the TCP server, whose response write races other
// ranks' releases). The caller must Release every returned Buf.
func (r *Reader) StepMetaRefs(ctx context.Context, step int) ([]*pool.Buf, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	st, err := r.stepMetaLocked(ctx, step)
	if err != nil {
		return nil, err
	}
	out := make([]*pool.Buf, len(st.metas))
	for i, m := range st.metas {
		out[i] = m.Retain()
	}
	if tr := b.obs.tracer; tr.Enabled() {
		tr.Emit(obs.Span{Kind: obs.KindReaderMeta, Parent: obs.ParentFrom(ctx),
			Stream: r.s.name, Step: step, Rank: r.rank, Peer: -1})
	}
	return out, nil
}

// stepMetaLocked blocks until step is fully published and returns its
// state. Caller holds the broker lock.
func (r *Reader) stepMetaLocked(ctx context.Context, step int) (*stepState, error) {
	b := r.b
	s := r.s
	if step < s.minStep {
		return nil, fmt.Errorf("%w: step %d below window start %d", ErrStepRetired, step, s.minStep)
	}
	err := b.wait(ctx, func() bool {
		if r.closed || s.failed != nil {
			return true
		}
		if st, ok := s.steps[step]; ok && st.complete() {
			return true
		}
		return s.ended && step > s.lastStep
	})
	if err != nil {
		return nil, err
	}
	if r.closed {
		return nil, ErrClosed
	}
	if st, ok := s.steps[step]; ok && st.complete() {
		return st, nil
	}
	if s.failed != nil {
		return nil, s.failed
	}
	return nil, io.EOF
}

// FetchBlock returns the payload writer rank wrote for the given step.
// The step must be currently available (published and not retired). The
// returned slice is a view of broker-held (possibly pooled) storage,
// valid until this rank releases the step or closes.
func (r *Reader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, err := r.fetchLocked(obs.ParentFrom(ctx), step, writerRank)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FetchBlockRef is FetchBlock returning a retained reference, valid
// until the caller releases it regardless of step retirement. The caller
// must Release the returned Buf.
func (r *Reader) FetchBlockRef(ctx context.Context, step, writerRank int) (*pool.Buf, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, err := r.fetchLocked(obs.ParentFrom(ctx), step, writerRank)
	if err != nil {
		return nil, err
	}
	return buf.Retain(), nil
}

// fetchLocked looks up one writer rank's payload. Caller holds the
// broker lock.
func (r *Reader) fetchLocked(parent obs.SpanID, step, writerRank int) (*pool.Buf, error) {
	b := r.b
	if r.closed {
		return nil, ErrClosed
	}
	s := r.s
	if step < s.minStep {
		return nil, fmt.Errorf("%w: step %d below window start %d", ErrStepRetired, step, s.minStep)
	}
	st, ok := s.steps[step]
	if !ok || !st.complete() {
		if s.failed != nil {
			return nil, s.failed
		}
		return nil, fmt.Errorf("flexpath: stream %q step %d not yet published", s.name, step)
	}
	if writerRank < 0 || writerRank >= st.size {
		return nil, fmt.Errorf("flexpath: writer rank %d out of range [0,%d)", writerRank, st.size)
	}
	buf := st.payloads[writerRank]
	b.stats.BlocksFetched++
	b.stats.BytesFetched += int64(buf.Len())
	b.obs.blocks.Inc()
	b.obs.bytesFetch.Add(int64(buf.Len()))
	if tr := b.obs.tracer; tr.Enabled() {
		tr.Emit(obs.Span{Kind: obs.KindReaderFetch, Parent: parent,
			Stream: s.name, Step: step, Rank: r.rank, Peer: writerRank,
			Bytes: int64(buf.Len()), Gen: buf.Gen()})
	}
	return buf, nil
}

// ReleaseStep declares this reader rank finished with the timestep. Once
// every reader rank has released it, the step is dropped and the writer
// queue window advances. Releasing is idempotent per rank.
func (r *Reader) ReleaseStep(step int) error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	s := r.s
	if step+1 > s.readerNext[r.rank] {
		s.readerNext[r.rank] = step + 1
	}
	if step < s.minStep {
		return nil // already retired
	}
	st, ok := s.steps[step]
	if !ok {
		return fmt.Errorf("flexpath: release of unpublished step %d on stream %q", step, s.name)
	}
	st.released[r.rank] = true
	if tr := b.obs.tracer; tr.Enabled() {
		tr.Emit(obs.Span{Kind: obs.KindReaderRelease, Stream: s.name, Step: step,
			Rank: r.rank, Peer: -1})
	}
	for s.retireHead(b) {
	}
	b.cond.Broadcast()
	return nil
}

// retireHead drops the head step if every reader rank has either
// released it or closed its handle, recycling the step's pooled blocks.
// Caller holds the broker lock. Reports whether a step was retired.
func (s *stream) retireHead(b *Broker) bool {
	st, ok := s.steps[s.minStep]
	if !ok || s.readerSize == 0 || !st.complete() {
		return false
	}
	// Durability gate: with a log attached, a step retires — and its
	// pooled storage recycles — only after the appender has framed it to
	// disk. A broken log drops the gate rather than wedging writers.
	if b.logStore != nil && !s.logBroken && s.minStep >= s.logged {
		return false
	}
	fullyReleased := true
	for rank := 0; rank < s.readerSize; rank++ {
		if !st.released[rank] {
			if !s.readerClosed[rank] {
				return false
			}
			// Retirement forced by a departed rank, not an actual release.
			fullyReleased = false
		}
	}
	retired := s.minStep
	delete(s.steps, s.minStep)
	s.minStep++
	b.tenantAccountFree(s, st)
	b.obs.retired.Inc()
	b.obs.queuedSteps.Add(-1)
	if tr := b.obs.tracer; tr.Enabled() {
		// The retire span carries the writer-rank-0 payload generation:
		// matching it against the step's fetch spans proves the pooled
		// storage fetched is the incarnation recycled here, not a reuse.
		var tot int64
		for _, p := range st.payloads {
			tot += int64(p.Len())
		}
		tr.Emit(obs.Span{Kind: obs.KindBrokerRetire, Stream: s.name, Step: retired,
			Rank: -1, Peer: -1, Bytes: tot, Gen: st.payloads[0].Gen()})
	}
	st.free()
	// Only a retirement every rank explicitly released is journaled. A
	// step un-gated because a rank closed (or its connection dropped)
	// without releasing was never provably consumed — journaling it would
	// let a broker teardown race poison the durable state, and recovery
	// would skip steps a restarted reader still needs. Unjournaled
	// retirements merely re-serve the step after recovery; consumers
	// deduplicate by step.
	if fullyReleased {
		b.logEnqueueRetire(s, retired)
	}
	return true
}

// Close retires this reader rank. A closed rank no longer gates step
// retirement, so a consumer that departs early (including a crashed one)
// cannot wedge upstream writers — the remaining ranks', or nobody's,
// releases decide. Close is idempotent: a second close is a no-op
// returning nil.
func (r *Reader) Close() error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.s.readerLive[r.rank] = false
	r.s.readerClosed[r.rank] = true
	for r.s.retireHead(b) {
	}
	b.cond.Broadcast()
	return nil
}

// Detach releases this rank's slot without departing the reader group:
// the rank keeps gating step retirement, so no buffered step can retire
// out from under a supervised restart. A replacement handle re-attaches
// and resumes at NextStep.
func (r *Reader) Detach() error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.s.readerLive[r.rank] = false
	b.cond.Broadcast()
	return nil
}
