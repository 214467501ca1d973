// Package obs is the observability layer of the stream fabric:
// step-level tracing (this file) and a metrics registry (registry.go).
// It is dependency-free — nothing in the repository sits below it — so
// every layer a timestep crosses can emit into it without import
// cycles: the adios writer, the flexpath broker, the reader fan-out,
// the kernels, and the workflow supervisor.
//
// The design follows the tracing-first discipline of the related-work
// stream processors (Flink-style latency markers, Flexpath's own
// instrumentation in Dayal et al.): every hop of a timestep becomes a
// Span carrying the (stream, step, rank) identity plus whatever the hop
// knows — byte counts, pooled-buffer generation, restart epoch — and
// causality is recorded twice, explicitly via Parent IDs propagated
// through contexts, and implicitly via emit order (spans land in the
// ring in the order the instrumented code ran, so "A happened before B"
// is a statement about ring positions, immune to wall-clock skew).
//
// Everything is nil-safe and zero-cost when disabled: a nil *Tracer
// emits nothing, takes no timestamps, and allocates nothing, so the
// hot path pays only a pointer test when tracing is off.
package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one emitted span within one Tracer. IDs are
// allocated from an atomic counter, so they are unique and dense but —
// because composite spans pre-allocate their ID before their children
// emit — not emit-ordered. Use ring position for ordering.
type SpanID uint64

// Kind classifies a span by the hop it instruments.
type Kind string

// The span taxonomy, in the order a timestep crosses the fabric.
const (
	// KindWriterPublish is one writer rank's block accepted by the
	// broker (the transport end of adios EndStep). Bytes counts
	// meta+payload; Gen is the payload buffer's pool generation.
	KindWriterPublish Kind = "writer.publish"
	// KindBrokerStep marks a timestep fully published: every writer
	// rank's block has arrived and the step became visible to readers.
	KindBrokerStep Kind = "broker.step"
	// KindBrokerRetire marks a timestep retired: every reader rank
	// released (or departed) and the pooled storage recycled. Gen is the
	// writer-rank-0 payload generation, matching its fetch spans.
	KindBrokerRetire Kind = "broker.retire"
	// KindReaderMeta is one reader rank's StepMeta served (the step's
	// self-describing metadata, all writer ranks' blobs).
	KindReaderMeta Kind = "reader.step_meta"
	// KindReaderFetch is one block payload served to one reader rank;
	// Peer is the writer rank whose block was fetched, Gen the payload
	// buffer's pool generation.
	KindReaderFetch Kind = "reader.fetch"
	// KindReaderRelease is one reader rank releasing a step.
	KindReaderRelease Kind = "reader.release"
	// KindKernelTransform times one rank's kernel Transform call.
	KindKernelTransform Kind = "kernel.transform"
	// KindStageStep is one rank's full step through a streaming stage's
	// step loop (one per part of a fused stage): wait, read, compute,
	// publish, release. Parent of the step's transport and kernel spans.
	KindStageStep Kind = "stage.step"
	// KindStageAttempt is one supervised launch of a workflow stage;
	// Epoch is the attempt number (0 = first launch).
	KindStageAttempt Kind = "stage.attempt"
	// KindStageRestart marks the supervisor scheduling a restart; Epoch
	// is the attempt about to launch.
	KindStageRestart Kind = "stage.restart"
	// KindLogAppend is one timestep framed onto the durable stream log
	// by the broker's write-behind appender; Bytes counts the record.
	KindLogAppend Kind = "log.append"
	// KindLogReplay is one historical step served to a catch-up reader
	// from segment reads (as opposed to the live queue).
	KindLogReplay Kind = "log.replay"
	// KindReplayLive is one step served to a catch-up reader from the
	// live in-memory queue — the post-handoff half of a replay session.
	// For any one replay reader each step appears in exactly one
	// log.replay or replay.live span: the exactly-once handoff proof.
	KindReplayLive Kind = "replay.live"
	// KindDiffStep is one step compared between two replayed component
	// variants; Bytes carries the compared byte volume and Err the first
	// divergence, when any.
	KindDiffStep Kind = "diff.step"
	// KindBrokerRecover is one stream's state rebuilt from the durable
	// log after a broker restart; Step is the recovered head, Bytes the
	// payload bytes restored into the queue.
	KindBrokerRecover Kind = "broker.recover"
)

// Span is one observed hop of one timestep through the fabric. Fields
// that do not apply to a kind are zero; Rank and Peer use -1 for "not
// applicable" so rank 0 stays distinguishable.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Stream string `json:"stream,omitempty"`
	Step   int    `json:"step"`
	// Rank is the emitting side's rank within its group: the writer rank
	// for publish spans, the reader rank for meta/fetch/release spans,
	// the component rank for kernel and stage-step spans.
	Rank int `json:"rank"`
	// Peer is the other side's rank where a span crosses groups: the
	// writer rank whose block a reader.fetch span served.
	Peer  int   `json:"peer"`
	Bytes int64 `json:"bytes,omitempty"`
	// Gen is the pool generation of the payload buffer involved, tying
	// fetch and retire spans to one physical buffer incarnation.
	Gen uint64 `json:"gen,omitempty"`
	// Epoch is the supervised-restart epoch (stage attempt) the span was
	// emitted under.
	Epoch int    `json:"epoch,omitempty"`
	Note  string `json:"note,omitempty"`
	// Start and End are wall-clock UnixNano timestamps. Point events
	// carry Start == End. For ordering proofs prefer ring position.
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Err   string `json:"err,omitempty"`
}

// DefaultRingSize is the span capacity of a Tracer created with
// NewTracer(0) — large enough for thousands of timesteps across a
// multi-stage workflow, small enough to stay a few MiB.
const DefaultRingSize = 1 << 16

// Tracer collects spans into a fixed-size ring buffer. All methods are
// safe for concurrent use and safe on a nil receiver (no-ops), so
// instrumented code holds a possibly-nil *Tracer and never branches
// beyond the receiver check the calls themselves perform.
type Tracer struct {
	ids     atomic.Uint64
	dropped atomic.Int64

	mu   sync.Mutex
	ring []Span
	next int  // ring index the next span lands in
	wrap bool // ring has wrapped at least once
}

// NewTracer returns a tracer holding up to capacity spans; capacity <= 0
// selects DefaultRingSize. Once full, the oldest spans are overwritten
// and counted in Dropped.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

// Enabled reports whether spans are being collected; false on nil.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the current wall clock in UnixNano, or 0 on a nil tracer
// — so disabled paths never touch the clock.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// NextID pre-allocates a span ID, letting a composite span (a stage
// step) hand its identity to children emitted before it seals itself.
// Returns 0 on a nil tracer.
func (t *Tracer) NextID() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.ids.Add(1))
}

// Emit records a span and returns its ID. A zero s.ID is assigned from
// the counter; a pre-allocated ID (NextID) is kept. Zero timestamps are
// stamped with the current time, so point events can be emitted as
// bare Span{Kind: ..., ...} literals. Nil-safe: returns 0.
func (t *Tracer) Emit(s Span) SpanID {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = SpanID(t.ids.Add(1))
	}
	if s.End == 0 {
		s.End = time.Now().UnixNano()
	}
	if s.Start == 0 {
		s.Start = s.End
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.wrap = true
		t.dropped.Add(1)
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
	}
	t.mu.Unlock()
	return s.ID
}

// Len reports how many spans are currently buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Dropped reports how many spans were overwritten after the ring
// filled. A trace-assertion harness should require this to be zero
// before reasoning about completeness.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns a copy of the buffered spans in emit order (oldest
// first). Nil-safe: returns nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if t.wrap {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// WriteJSONL writes the buffered spans to w, one JSON object per line,
// in emit order — the export format behind `sbrun -trace out.jsonl`.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parentKey carries a parent SpanID through a context.
type parentKey struct{}

// WithParent returns a context carrying id as the parent for spans
// emitted downstream of it (the broker reads it on publish and fetch).
// Call only when tracing is enabled — it allocates.
func WithParent(ctx context.Context, id SpanID) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, parentKey{}, id)
}

// ParentFrom extracts the parent span ID from ctx, or 0.
func ParentFrom(ctx context.Context) SpanID {
	if ctx == nil {
		return 0
	}
	if id, ok := ctx.Value(parentKey{}).(SpanID); ok {
		return id
	}
	return 0
}
