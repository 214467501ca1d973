package flexpath

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/streamlog"
)

// This file is the broker's durability layer: a write-behind bridge
// from the in-memory stream queue to the segmented stream log
// (internal/streamlog), and the recovery path that rebuilds stream
// state from that log after a broker restart.
//
// The ordering contract with the pool is the heart of it. A published
// step's pooled buffers recycle at retirement (stepState.free); with a
// log attached, retireHead additionally requires the step to be below
// the stream's durability watermark (stream.logged), which only the
// appender advances — after the step's bytes are framed to the active
// segment. So the sequence is always publish → append → retire →
// recycle, and a crash between publish and append loses only steps no
// reader could have released yet; everything a reader consumed is on
// disk.
//
// The appender itself is one goroutine per stream, started lazily and
// exiting when its queue drains. It pops jobs under the broker lock but
// performs disk I/O unlocked, so a slow disk back-pressures writers
// only through the ordinary queue-depth window (retirement stalls →
// window stalls), never by holding the broker lock across a write. Jobs
// are strictly FIFO per stream, which preserves the log's append
// invariants: a retire record follows the step it retires, the end
// record follows the last step.
//
// Disk failure policy: the first append error marks the stream
// logBroken, releases the queue, and drops the durability gate. The
// stream degrades to the pre-log, memory-only behavior instead of
// wedging a live workflow on a dead disk; the failure is visible as a
// log.append span carrying the error.

// logJob kinds.
const (
	jobStep = iota + 1
	jobRetire
	jobEnd
)

// logJob is one queued append for a stream's write-behind appender.
type logJob struct {
	kind     int
	step     int         // jobStep, jobRetire
	metas    []*pool.Buf // jobStep: retained refs, released after append
	payloads []*pool.Buf
	lastStep int // jobEnd
}

// AttachLog mounts a durable log store on the broker: from now on every
// fully published step is framed to its stream's segment log before it
// may retire, and Recover can rebuild stream state after a restart.
// Attach before any handles; attaching a store to a broker with live
// traffic leaves already-buffered steps unlogged.
func (b *Broker) AttachLog(store *streamlog.Store) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.logStore = store
	b.registerLogMetricsLocked()
}

// registerLogMetricsLocked publishes the log gauges once both a store
// and a registry exist — AttachLog and SetObserver may run in either
// order. Caller holds b.mu.
func (b *Broker) registerLogMetricsLocked() {
	if b.logStore == nil || b.obs.reg == nil {
		return
	}
	store := b.logStore
	b.obs.reg.RegisterFunc("log.segments", func() int64 { return int64(store.Segments()) })
	b.obs.reg.RegisterFunc("log.bytes", func() int64 { return store.Bytes() })
	// log.views counts outstanding mmap views of sealed segments. A
	// quiescent broker (no replay reader mid-step) must report zero —
	// anything else is a leaked release closure pinning a mapping.
	b.obs.reg.RegisterFunc("log.views", func() int64 { return int64(store.OpenViews()) })
}

// FlushLog blocks until every stream's write-behind append queue has
// drained to the segment log, or ctx is done. After it returns, the log
// directory holds everything the broker has accepted — the barrier a
// recorder needs before handing the directory to offline replay.
func (b *Broker) FlushLog(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.logStore == nil {
		return nil
	}
	return b.wait(ctx, func() bool {
		for _, s := range b.streams {
			if len(s.logQueue) > 0 || s.logBusy {
				return false
			}
		}
		return true
	})
}

// logEnqueueStep hands a just-completed step to the stream's appender,
// retaining every buffer so the bytes survive until framed regardless
// of what the in-memory queue does. Caller holds b.mu. No-op without a
// store or on a broken log.
func (b *Broker) logEnqueueStep(s *stream, step int, st *stepState) {
	if b.logStore == nil || s.logBroken {
		return
	}
	w := len(st.metas)
	bufs := make([]*pool.Buf, 2*w)
	for i := range st.metas {
		bufs[i] = st.metas[i].Retain()
		bufs[w+i] = st.payloads[i].Retain()
	}
	b.logEnqueue(s, logJob{kind: jobStep, step: step, metas: bufs[:w:w], payloads: bufs[w:]})
}

// logEnqueueRetire journals a retirement. Caller holds b.mu.
func (b *Broker) logEnqueueRetire(s *stream, step int) {
	if b.logStore == nil || s.logBroken {
		return
	}
	b.logEnqueue(s, logJob{kind: jobRetire, step: step})
}

// logEnqueueEnd journals a graceful stream end. Caller holds b.mu.
func (b *Broker) logEnqueueEnd(s *stream, lastStep int) {
	if b.logStore == nil || s.logBroken {
		return
	}
	b.logEnqueue(s, logJob{kind: jobEnd, lastStep: lastStep})
}

// logEnqueue appends a job and ensures the stream's appender goroutine
// is running. Caller holds b.mu.
func (b *Broker) logEnqueue(s *stream, job logJob) {
	s.logQueue = append(s.logQueue, job)
	if !s.logBusy {
		s.logBusy = true
		go b.runLogAppender(s)
	}
}

// runLogAppender drains one stream's job queue to its segment log,
// advancing the durability watermark and re-running retirement as steps
// land on disk. It exits when the queue is empty; the next enqueue
// starts a fresh incarnation.
func (b *Broker) runLogAppender(s *stream) {
	lg, err := b.logStore.Log(s.name)
	if err != nil {
		b.mu.Lock()
		b.logFailLocked(s, err)
		b.mu.Unlock()
		return
	}
	// The per-step view slices are reused across jobs: Append writes the
	// payloads straight from the pooled buffers and holds no blob past
	// its return, and the buffers are released only after it returns.
	var metas, payloads [][]byte
	b.mu.Lock()
	for len(s.logQueue) > 0 {
		job := s.logQueue[0]
		s.logQueue = s.logQueue[1:]
		cfg := streamlog.Config{WriterSize: s.writerSize, QueueDepth: s.queueDepth}
		b.mu.Unlock()

		var nbytes int64
		err := func() error {
			switch job.kind {
			case jobStep:
				if err := lg.SetConfig(cfg); err != nil {
					return err
				}
				metas, payloads = metas[:0], payloads[:0]
				for i := range job.metas {
					metas = append(metas, job.metas[i].Bytes())
					payloads = append(payloads, job.payloads[i].Bytes())
					nbytes += int64(len(metas[i]) + len(payloads[i]))
				}
				return lg.Append(job.step, metas, payloads)
			case jobRetire:
				return lg.AppendRetire(job.step)
			case jobEnd:
				return lg.AppendEnd(job.lastStep)
			}
			return fmt.Errorf("flexpath: unknown log job kind %d", job.kind)
		}()
		for i := range job.metas {
			job.metas[i].Release()
			job.payloads[i].Release()
		}

		b.mu.Lock()
		if err != nil {
			b.logFailLocked(s, err)
			b.mu.Unlock()
			return
		}
		if job.kind == jobStep {
			if tr := b.obs.tracer; tr.Enabled() {
				tr.Emit(obs.Span{Kind: obs.KindLogAppend, Stream: s.name,
					Step: job.step, Rank: -1, Peer: -1, Bytes: nbytes})
			}
			if job.step+1 > s.logged {
				s.logged = job.step + 1
			}
			// The watermark moved: the head step may now retire, and
			// catch-up readers waiting on durability may proceed.
			for s.retireHead(b) {
			}
			b.cond.Broadcast()
		}
	}
	s.logBusy = false
	// FlushLog waits for exactly this: queue empty and appender gone.
	b.cond.Broadcast()
	b.mu.Unlock()
}

// logFailLocked degrades a stream to non-durable operation after a log
// error: the durability gate drops, queued jobs are released, and
// retirement resumes so the live workflow keeps flowing. Caller holds
// b.mu.
func (b *Broker) logFailLocked(s *stream, err error) {
	s.logBroken = true
	s.logBusy = false
	for _, job := range s.logQueue {
		for i := range job.metas {
			job.metas[i].Release()
			job.payloads[i].Release()
		}
	}
	s.logQueue = nil
	if tr := b.obs.tracer; tr.Enabled() {
		tr.Emit(obs.Span{Kind: obs.KindLogAppend, Stream: s.name,
			Rank: -1, Peer: -1, Err: err.Error()})
	}
	for s.retireHead(b) {
	}
	b.cond.Broadcast()
}

// Recover rebuilds stream state from the attached log store: for every
// journaled stream it restores the writer-group shape, reloads the
// unretired step window into the in-memory queue, and repositions the
// resume points so re-attaching writers continue at the durable head
// and re-attaching readers re-read from the recovered window start —
// the ordinary supervised detach/re-attach path, pointed at a new
// broker process. Call after AttachLog and before any handles attach;
// streams that already have a writer group are skipped. Returns the
// number of streams recovered.
func (b *Broker) Recover() (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.logStore == nil {
		return 0, errors.New("flexpath: Recover without an attached log store")
	}
	recovered := 0
	for _, name := range b.logStore.Streams() {
		lg, err := b.logStore.Log(name)
		if err != nil {
			return recovered, err
		}
		cfg, ok := lg.Config()
		if !ok {
			continue // journaled nothing: no state to restore
		}
		s := b.getStream(name)
		if s.writerSize != 0 {
			continue // live stream: recovery only fills empty brokers
		}
		s.writerSize = cfg.WriterSize
		s.queueDepth = cfg.QueueDepth
		s.writers = make([]slotState, cfg.WriterSize)
		s.lastByRank = make([]int, cfg.WriterSize)
		next := lg.NextStep()
		for i := range s.lastByRank {
			s.lastByRank[i] = next
		}
		s.minStep = lg.LastRetired() + 1
		var restored int64
		for step := s.minStep; step < next; step++ {
			metas, payloads, err := lg.ReadStep(step)
			if err != nil {
				if errors.Is(err, streamlog.ErrEvicted) {
					// The retire record for this step was lost with the
					// crashed tail while retention had already reclaimed the
					// segment — the step is gone precisely because every
					// reader released it. Treat it as retired.
					s.minStep = step + 1
					continue
				}
				return recovered, err
			}
			st := &stepState{
				metas:    make([]*pool.Buf, len(metas)),
				payloads: make([]*pool.Buf, len(payloads)),
				pubCount: len(metas),
			}
			for i := range metas {
				st.metas[i] = pool.Wrap(metas[i])
				st.payloads[i] = pool.Wrap(payloads[i])
				restored += int64(len(metas[i]) + len(payloads[i]))
			}
			s.steps[step] = st
			b.obs.queuedSteps.Add(1)
		}
		s.logged = next
		if last, ended := lg.Ended(); ended {
			s.ended = true
			s.lastStep = last
		}
		if tr := b.obs.tracer; tr.Enabled() {
			tr.Emit(obs.Span{Kind: obs.KindBrokerRecover, Stream: name,
				Step: next, Rank: -1, Peer: -1, Bytes: restored})
		}
		recovered++
	}
	b.cond.Broadcast()
	return recovered, nil
}
