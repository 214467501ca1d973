package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// timedTransport is the timing decorator of a traced run: it wraps
// every handle the transport gives out and records how long each
// transport operation takes and how many blocks and bytes cross, per
// stream. It sits where internal/fault's injector sits — between the
// components and the fabric — so its numbers are what the fabric costs
// its callers, seen from outside. It is never installed on the runs
// that produce the end-to-end metrics.
type timedTransport struct {
	inner Transport

	mu      sync.Mutex
	streams map[string]*streamOps

	// srcStream's publishes and sinkStream's reads are additionally
	// recorded per step and rank in rec, so the adios self time of the
	// benchmark's own source and sink can be computed (enclosing adios
	// call minus the transport time nested in it).
	srcStream, sinkStream string
	rec                   *recorder
}

// streamOps accumulates one stream's transport time and traffic.
type streamOps struct {
	publishNS, metaNS, fetchNS, releaseNS atomic.Int64
	publishes, fetches, releases          atomic.Int64
	publishBytes, fetchBytes              atomic.Int64
}

func newTimedTransport(inner Transport, srcStream, sinkStream string, rec *recorder) *timedTransport {
	return &timedTransport{inner: inner, streams: map[string]*streamOps{},
		srcStream: srcStream, sinkStream: sinkStream, rec: rec}
}

func (t *timedTransport) ops(stream string) *streamOps {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.streams[stream]
	if o == nil {
		o = &streamOps{}
		t.streams[stream] = o
	}
	return o
}

func (t *timedTransport) AttachWriter(stream string, rank, size, depth int) (BlockWriter, error) {
	bw, err := t.inner.AttachWriter(stream, rank, size, depth)
	if err != nil {
		return nil, err
	}
	w := &timedWriter{BlockWriter: bw, ops: t.ops(stream), rank: rank}
	if stream == t.srcStream {
		w.rec = t.rec
	}
	return w, nil
}

func (t *timedTransport) AttachReader(stream string, rank, size int) (BlockReader, error) {
	br, err := t.inner.AttachReader(stream, rank, size)
	if err != nil {
		return nil, err
	}
	r := &timedReader{BlockReader: br, ops: t.ops(stream), rank: rank}
	if stream == t.sinkStream {
		r.rec = t.rec
	}
	return r, nil
}

type timedWriter struct {
	BlockWriter
	ops  *streamOps
	rank int
	rec  *recorder
}

func (w *timedWriter) note(step int, start time.Time, bytes int) {
	d := int64(time.Since(start))
	w.ops.publishNS.Add(d)
	w.ops.publishes.Add(1)
	w.ops.publishBytes.Add(int64(bytes))
	if w.rec != nil && step < len(w.rec.pubNS) {
		w.rec.pubNS[step][w.rank] = d
	}
}

func (w *timedWriter) PublishBlock(ctx context.Context, step int, meta, payload []byte) error {
	start := time.Now()
	err := w.BlockWriter.PublishBlock(ctx, step, meta, payload)
	w.note(step, start, len(meta)+len(payload))
	return err
}

func (w *timedWriter) PublishBlockRef(ctx context.Context, step int, meta, payload *Buf) error {
	n := meta.Len() + payload.Len()
	start := time.Now()
	err := publishRef(ctx, w.BlockWriter, step, meta, payload)
	w.note(step, start, n)
	return err
}

func (w *timedWriter) NextStep() int { return nextStepOf(w.BlockWriter) }

type timedReader struct {
	BlockReader
	ops  *streamOps
	rank int
	rec  *recorder
}

func (r *timedReader) nested(step int, d int64) {
	if r.rec != nil && step < len(r.rec.sinkNestedNS) {
		r.rec.sinkNestedNS[step][r.rank] += d
	}
}

func (r *timedReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	start := time.Now()
	metas, err := r.BlockReader.StepMeta(ctx, step)
	d := int64(time.Since(start))
	r.ops.metaNS.Add(d)
	r.nested(step, d)
	return metas, err
}

func (r *timedReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	start := time.Now()
	p, err := r.BlockReader.FetchBlock(ctx, step, writerRank)
	d := int64(time.Since(start))
	r.ops.fetchNS.Add(d)
	r.ops.fetches.Add(1)
	r.ops.fetchBytes.Add(int64(len(p)))
	r.nested(step, d)
	return p, err
}

func (r *timedReader) ReleaseStep(step int) error {
	start := time.Now()
	err := r.BlockReader.ReleaseStep(step)
	d := int64(time.Since(start))
	r.ops.releaseNS.Add(d)
	r.ops.releases.Add(1)
	r.nested(step, d)
	return err
}

func (r *timedReader) NextStep() int { return nextStepOf(r.BlockReader) }

// opsTotal is the sum of per-stream accumulators.
type opsTotal struct {
	publishNS, metaNS, fetchNS, releaseNS float64
	publishes, fetches, releases          float64
	publishBytes, fetchBytes              float64
}

// total sums the accumulators of one stream, or of every stream when
// only is empty.
func (t *timedTransport) total(only string) opsTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	var o opsTotal
	for name, s := range t.streams {
		if only != "" && name != only {
			continue
		}
		o.publishNS += float64(s.publishNS.Load())
		o.metaNS += float64(s.metaNS.Load())
		o.fetchNS += float64(s.fetchNS.Load())
		o.releaseNS += float64(s.releaseNS.Load())
		o.publishes += float64(s.publishes.Load())
		o.fetches += float64(s.fetches.Load())
		o.releases += float64(s.releases.Load())
		o.publishBytes += float64(s.publishBytes.Load())
		o.fetchBytes += float64(s.fetchBytes.Load())
	}
	return o
}
