// Package conformance is the normative statement of the flexpath
// transport contract, executable against any backend. Every check is
// written purely in terms of flexpath.Transport — attach, publish,
// fetch, release, close/detach/crash — so one suite proves the
// in-process broker, the TCP broker, and the Unix-socket broker
// interchangeable, and a future backend inherits the whole protocol by
// adding one registration call:
//
//	func TestConformanceMine(t *testing.T) {
//		conformance.Run(t, func(t *testing.T) conformance.Backend {
//			b := flexpath.NewBroker()
//			// ... front b with the new backend, t.Cleanup teardown ...
//			return conformance.Backend{Transport: myTransport, Broker: b}
//		})
//	}
//
// The checks cover the properties the rest of the system leans on:
// M×N visibility gating (a step is invisible until every writer rank
// published it), QueueDepth backpressure, launch-order independence,
// end-of-stream at the highest common step, ErrWriterLost on crash,
// supervised detach/re-attach resuming at NextStep, retirement after
// the last release (proven down to pool-generation equality via obs
// spans), and survival of a seeded fault-injection chaos run.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/fault"
	"repro/internal/flexpath"
	"repro/internal/obs"
	"repro/internal/obs/tracetest"
	"repro/internal/pool"
	"repro/internal/streamlog"
)

// Backend is one transport under test. Transport is the client-side
// fabric the checks drive; Broker is the in-process broker the backend
// ultimately fronts (for remote backends, the one behind the server),
// used by checks that assert on broker-side accounting and spans.
type Backend struct {
	Transport flexpath.Transport
	Broker    *flexpath.Broker
	// MakeShm, when non-nil, builds a fresh shared-memory backend with
	// explicit ring sizing, for the shm-specific checks (slot reuse
	// safety, ring-full backpressure). Backends without a shared-memory
	// data plane leave it nil and those checks skip.
	MakeShm func(cfg flexpath.ShmConfig) (Backend, func(), error)
}

// Factory builds a fresh, isolated backend for one check. It is called
// once per subtest; teardown belongs in t.Cleanup.
type Factory func(t *testing.T) Backend

// check is one named contract property.
type check struct {
	name string
	fn   func(t *testing.T, be Backend)
}

// checks is the suite, in rough order of dependence: basic exchange
// first, lifecycle and fault semantics later, chaos last.
var checks = []check{
	{"SingleWriterReader", checkSingleWriterReader},
	{"LaunchOrderIndependence", checkLaunchOrderIndependence},
	{"VisibilityGating", checkVisibilityGating},
	{"MxNExchange", checkMxNExchange},
	{"QueueDepthBackpressure", checkQueueDepthBackpressure},
	{"AttachValidation", checkAttachValidation},
	{"RetiredStep", checkRetiredStep},
	{"ContextCancelUnblocks", checkContextCancelUnblocks},
	{"ClosedHandles", checkClosedHandles},
	{"GroupCloseEOFAtCommonStep", checkGroupCloseEOFAtCommonStep},
	{"CrashUnblocksBlockedReader", checkCrashUnblocksBlockedReader},
	{"CrashUnblocksBlockedPeerWriter", checkCrashUnblocksBlockedPeerWriter},
	{"WriterDetachResume", checkWriterDetachResume},
	{"ReaderDetachResumeGroupMin", checkReaderDetachResumeGroupMin},
	{"ReaderCloseMidStepNeverStrands", checkReaderCloseMidStepNeverStrands},
	{"ConcurrentIdempotentClose", checkConcurrentIdempotentClose},
	{"RetireGenEquality", checkRetireGenEquality},
	{"ReplayFromStepOrdering", checkReplayFromStepOrdering},
	{"ReplayCatchupLiveHandoff", checkReplayCatchupLiveHandoff},
	{"ReplayRetentionHorizon", checkReplayRetentionHorizon},
	{"ReplayRequiresLog", checkReplayRequiresLog},
	{"ShmSlotGenerationReuse", checkShmSlotGenerationReuse},
	{"ShmRingFullBackpressure", checkShmRingFullBackpressure},
	{"TenantNamespaceIsolation", checkTenantNamespaceIsolation},
	{"TenantQuotaRejection", checkTenantQuotaRejection},
	{"TenantEvictionDrains", checkTenantEvictionDrains},
	{"TenantSubmissionIdempotency", checkTenantSubmissionIdempotency},
	{"ChaosFaultInjection", checkChaosFaultInjection},
}

// Run executes every contract check against a fresh backend from f.
func Run(t *testing.T, f Factory) {
	for _, c := range checks {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.fn(t, f(t))
		})
	}
}

// Checks returns the names of the contract checks, in execution order
// (for tooling that needs to enumerate or select them).
func Checks() []string {
	out := make([]string, len(checks))
	for i, c := range checks {
		out[i] = c.name
	}
	return out
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// The basic rendezvous: publish, meta, fetch, release, and io.EOF once
// the writer group closed.
func checkSingleWriterReader(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.single", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := be.Transport.AttachReader("c.single", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		meta := []byte(fmt.Sprintf("m%d", step))
		payload := []byte(fmt.Sprintf("p%d", step))
		if err := w.PublishBlock(ctx, step, meta, payload); err != nil {
			t.Fatal(err)
		}
		metas, err := r.StepMeta(ctx, step)
		if err != nil {
			t.Fatal(err)
		}
		if len(metas) != 1 || string(metas[0]) != fmt.Sprintf("m%d", step) {
			t.Fatalf("metas = %q", metas)
		}
		got, err := r.FetchBlock(ctx, step, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("p%d", step) {
			t.Fatalf("payload = %q", got)
		}
		if err := r.ReleaseStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 3); !errors.Is(err, io.EOF) {
		t.Fatalf("after close = %v, want EOF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// Launch-order independence: a reader that attaches before any writer
// exists blocks in WriterSize and resolves once the writer group
// appears — components need not be started in pipeline order.
func checkLaunchOrderIndependence(t *testing.T, be Backend) {
	ctx := ctxT(t)
	r, err := be.Transport.AttachReader("c.order", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make(chan int, 1)
	errc := make(chan error, 1)
	go func() {
		n, err := r.WriterSize(ctx)
		if err != nil {
			errc <- err
			return
		}
		got <- n
	}()
	time.Sleep(20 * time.Millisecond)
	w, err := be.Transport.AttachWriter("c.order", 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	select {
	case n := <-got:
		if n != 3 {
			t.Fatalf("WriterSize = %d, want 3", n)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-ctx.Done():
		t.Fatal("WriterSize never unblocked")
	}
}

// Visibility gating: with M writers, a step must stay invisible until
// every rank published it — a reader seeing a partial step would read
// a torn timestep.
func checkVisibilityGating(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w0, err := be.Transport.AttachWriter("c.gate", 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w1, err := be.Transport.AttachWriter("c.gate", 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	r, err := be.Transport.AttachReader("c.gate", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := w0.PublishBlock(ctx, 0, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	// Half-published: the step must not become visible within the probe
	// window.
	probe, cancel := context.WithTimeout(ctx, 60*time.Millisecond)
	_, err = r.StepMeta(probe, 0)
	cancel()
	if err == nil {
		t.Fatal("half-published step became visible")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked StepMeta = %v, want deadline exceeded", err)
	}
	if err := w1.PublishBlock(ctx, 0, []byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	metas, err := r.StepMeta(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || string(metas[0]) != "a" || string(metas[1]) != "b" {
		t.Fatalf("metas = %q", metas)
	}
}

// The full M×N exchange: 2 writers, 3 readers, concurrent ranks, every
// reader sees every writer's block of every step, then EOF at the end.
func checkMxNExchange(t *testing.T, be Backend) {
	ctx := ctxT(t)
	const steps = 5
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := be.Transport.AttachWriter("c.mxn", rank, 2, 1)
			if err != nil {
				errs <- err
				return
			}
			defer w.Close()
			for s := 0; s < steps; s++ {
				if err := w.PublishBlock(ctx, s, []byte{byte(rank)}, []byte{byte(rank), byte(s)}); err != nil {
					errs <- err
					return
				}
			}
		}(rank)
	}
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r, err := be.Transport.AttachReader("c.mxn", rank, 3)
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			for s := 0; ; s++ {
				metas, err := r.StepMeta(ctx, s)
				if errors.Is(err, io.EOF) {
					if s != steps {
						errs <- fmt.Errorf("reader %d: EOF at step %d, want %d", rank, s, steps)
					}
					return
				}
				if err != nil {
					errs <- err
					return
				}
				if len(metas) != 2 {
					errs <- fmt.Errorf("step %d: %d metas", s, len(metas))
					return
				}
				for wr := 0; wr < 2; wr++ {
					p, err := r.FetchBlock(ctx, s, wr)
					if err != nil {
						errs <- err
						return
					}
					if len(p) != 2 || p[0] != byte(wr) || p[1] != byte(s) {
						errs <- fmt.Errorf("step %d writer %d payload = %v", s, wr, p)
						return
					}
				}
				if err := r.ReleaseStep(s); err != nil {
					errs <- err
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// QueueDepth backpressure: with depth d, publishing step minStep+d must
// block until the oldest buffered step retires.
func checkQueueDepthBackpressure(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.depth", 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := be.Transport.AttachReader("c.depth", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := w.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	published := make(chan error, 1)
	go func() { published <- w.PublishBlock(ctx, 1, nil, nil) }()
	select {
	case err := <-published:
		t.Fatalf("publish beyond the window returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if err := <-published; err != nil {
		t.Fatal(err)
	}
}

// Attach validation: malformed ranks and group-size conflicts are
// rejected with errors, not accepted silently — whichever process they
// arrive from.
func checkAttachValidation(t *testing.T, be Backend) {
	if _, err := be.Transport.AttachWriter("c.attach", 5, 2, 0); err == nil {
		t.Error("writer rank out of range accepted")
	}
	if _, err := be.Transport.AttachReader("c.attach", 3, 3); err == nil {
		t.Error("reader rank out of range accepted")
	}
	w, err := be.Transport.AttachWriter("c.attach", 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := be.Transport.AttachWriter("c.attach", 1, 3, 0); err == nil {
		t.Error("writer group size conflict accepted")
	}
}

// A released (retired) step is gone: reading it again is ErrStepRetired,
// not a silent replay of stale data.
func checkRetiredStep(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.retired", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := be.Transport.AttachReader("c.retired", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := w.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 0); !errors.Is(err, flexpath.ErrStepRetired) {
		t.Fatalf("retired step read = %v, want ErrStepRetired", err)
	}
}

// Context cancellation unblocks a waiting operation with the context's
// error, leaving the handle usable enough to settle cleanly.
func checkContextCancelUnblocks(t *testing.T, be Backend) {
	r, err := be.Transport.AttachReader("c.cancel", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.StepMeta(ctx, 0) // no writer will ever come
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled StepMeta succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the operation")
	}
}

// Operations on a settled handle fail with ErrClosed, and Close is
// idempotent.
func checkClosedHandles(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.closed", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := be.Transport.AttachReader("c.closed", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 0, nil, nil); !errors.Is(err, flexpath.ErrClosed) {
		t.Fatalf("publish on closed handle = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close = %v, want nil (idempotent)", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 0); !errors.Is(err, flexpath.ErrClosed) {
		t.Fatalf("read on closed handle = %v, want ErrClosed", err)
	}
}

// End of stream lands at the highest step every writer rank published:
// a rank that raced ahead before the group closed does not extend the
// stream past its slowest peer.
func checkGroupCloseEOFAtCommonStep(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w0, err := be.Transport.AttachWriter("c.eof", 0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := be.Transport.AttachWriter("c.eof", 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.PublishBlock(ctx, 0, nil, []byte("a0")); err != nil {
		t.Fatal(err)
	}
	if err := w0.PublishBlock(ctx, 1, nil, []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := w1.PublishBlock(ctx, 0, nil, []byte("b0")); err != nil {
		t.Fatal(err)
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := be.Transport.AttachReader("c.eof", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	metas, err := r.StepMeta(ctx, 0)
	if err != nil || len(metas) != 2 {
		t.Fatalf("common step unreadable: %v (%d metas)", err, len(metas))
	}
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	// Step 1 was published by rank 0 only: past the highest common step,
	// the stream has ended.
	if _, err := r.StepMeta(ctx, 1); !errors.Is(err, io.EOF) {
		t.Fatalf("partial trailing step = %v, want EOF", err)
	}
}

// Crash fails the stream: a blocked reader gets ErrWriterLost instead
// of hanging, completed steps stay drainable, and re-attaching to the
// failed stream reports the same diagnosis.
func checkCrashUnblocksBlockedReader(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.crash", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := be.Transport.AttachReader("c.crash", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := w.PublishBlock(ctx, 0, nil, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := r.StepMeta(ctx, 1) // never arrives: the writer dies first
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := w.Crash(errors.New("simulated component crash")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, flexpath.ErrWriterLost) {
			t.Fatalf("blocked StepMeta after crash = %v, want ErrWriterLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("crash did not unblock the waiting reader")
	}
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatalf("pre-crash step unreadable: %v", err)
	}
	if _, err := r.FetchBlock(ctx, 0, 0); err != nil {
		t.Fatalf("pre-crash block unreadable: %v", err)
	}
	if _, err := be.Transport.AttachWriter("c.crash", 0, 1, 0); !errors.Is(err, flexpath.ErrWriterLost) {
		t.Fatalf("attach to failed stream = %v, want ErrWriterLost", err)
	}
}

// Crash also unblocks a peer writer parked on a full queue window —
// otherwise one rank's death deadlocks the survivors.
func checkCrashUnblocksBlockedPeerWriter(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w0, err := be.Transport.AttachWriter("c.peers", 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := be.Transport.AttachWriter("c.peers", 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := be.Transport.AttachReader("c.peers", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Fill the window: step 0 complete but unreleased, so step 1 blocks.
	if err := w0.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := w1.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- w0.PublishBlock(ctx, 1, nil, nil) }()
	time.Sleep(20 * time.Millisecond)
	if err := w1.Crash(errors.New("rank 1 died")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, flexpath.ErrWriterLost) {
			t.Fatalf("peer publish after crash = %v, want ErrWriterLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("crash did not unblock the blocked peer writer")
	}
}

// Detach + re-attach is the supervised-restart path: the stream neither
// ends nor fails, and the replacement writer resumes at NextStep.
func checkWriterDetachResume(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.resume", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.NextStep(); got != 0 {
		t.Fatalf("fresh NextStep = %d, want 0", got)
	}
	for s := 0; s < 2; s++ {
		if err := w.PublishBlock(ctx, s, nil, []byte{byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := w.Detach(); err != nil {
		t.Fatalf("second detach = %v, want nil (idempotent)", err)
	}
	w2, err := be.Transport.AttachWriter("c.resume", 0, 1, 8)
	if err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
	if got := w2.NextStep(); got != 2 {
		t.Fatalf("NextStep after re-attach = %d, want 2", got)
	}
	if err := w2.PublishBlock(ctx, 2, nil, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := be.Transport.AttachReader("c.resume", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := 0; s < 3; s++ {
		if _, err := r.StepMeta(ctx, s); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		p, err := r.FetchBlock(ctx, s, 0)
		if err != nil || len(p) != 1 || p[0] != byte(s) {
			t.Fatalf("step %d payload = %v, %v", s, p, err)
		}
		if err := r.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.StepMeta(ctx, 3); !errors.Is(err, io.EOF) {
		t.Fatalf("after last step: %v, want EOF", err)
	}
}

// A detached reader rank keeps gating retirement, so a restart cannot
// lose buffered steps; NextStep is the group minimum, realigning a
// restarted collective group on a common step.
func checkReaderDetachResumeGroupMin(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.rdetach", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r0, err := be.Transport.AttachReader("c.rdetach", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := be.Transport.AttachReader("c.rdetach", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := w.PublishBlock(ctx, s, nil, []byte{byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rank 1 races ahead: releases 0 and 1. Rank 0 releases only 0, then
	// the whole group detaches (supervised restart).
	if err := r1.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if err := r1.ReleaseStep(1); err != nil {
		t.Fatal(err)
	}
	if err := r0.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if err := r0.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := r1.Detach(); err != nil {
		t.Fatal(err)
	}
	n0, err := be.Transport.AttachReader("c.rdetach", 0, 2)
	if err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
	defer n0.Close()
	n1, err := be.Transport.AttachReader("c.rdetach", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	if got := n0.NextStep(); got != 1 {
		t.Fatalf("rank 0 NextStep = %d, want 1", got)
	}
	if got := n1.NextStep(); got != 1 {
		t.Fatalf("rank 1 NextStep = %d, want 1 (group min, not its own 2)", got)
	}
	// Step 1 must still be buffered — rank 0 never released it, and its
	// detach did not stop gating retirement.
	if _, err := n1.StepMeta(ctx, 1); err != nil {
		t.Fatalf("buffered step lost across detach: %v", err)
	}
	// Re-releasing an already-released step is a harmless no-op.
	if err := n1.ReleaseStep(1); err != nil {
		t.Fatal(err)
	}
	if err := n0.ReleaseStep(1); err != nil {
		t.Fatal(err)
	}
}

// A reader that dies between StepMeta and FetchBlock must not strand
// the step: the surviving ranks' releases decide retirement and the
// writer's window advances.
func checkReaderCloseMidStepNeverStrands(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.strand", 0, 1, 1) // depth 1: step 0 must retire before step 1
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r0, err := be.Transport.AttachReader("c.strand", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := be.Transport.AttachReader("c.strand", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	if err := w.PublishBlock(ctx, 0, nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Rank 0 sees the step's metadata, then dies before fetching or
	// releasing anything.
	if _, err := r0.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := r0.Close(); err != nil {
		t.Fatal(err)
	}
	// Rank 1 consumes and releases normally.
	if _, err := r1.FetchBlock(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r1.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	// The writer must unblock into step 1: with depth 1 this only works
	// if step 0 actually retired despite rank 0's vanished release.
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := w.PublishBlock(pctx, 1, nil, []byte("y")); err != nil {
		t.Fatalf("writer stranded after reader died mid-step: %v", err)
	}
}

// Close must be idempotent and safe under concurrent callers — N racing
// closers must decrement broker-side group refcounts exactly once, and
// the broker's accounting is the witness.
func checkConcurrentIdempotentClose(t *testing.T, be Backend) {
	ctx := ctxT(t)
	w, err := be.Transport.AttachWriter("c.cic", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]flexpath.ReaderHandle, 2)
	for i := range readers {
		if readers[i], err = be.Transport.AttachReader("c.cic", i, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.PublishBlock(ctx, 0, nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Close(); err != nil {
				t.Errorf("writer close: %v", err)
			}
			for _, r := range readers {
				if err := r.Close(); err != nil {
					t.Errorf("reader close: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	stats := be.Broker.StreamStats()
	if len(stats) != 1 {
		t.Fatalf("streams = %d, want 1", len(stats))
	}
	st := stats[0]
	if st.WritersLive != 0 || st.ReadersLive != 0 {
		t.Fatalf("live handles after close: writers=%d readers=%d", st.WritersLive, st.ReadersLive)
	}
	if !st.Ended {
		t.Fatal("stream did not end after all writers closed")
	}
	if st.QueuedSteps != 0 {
		t.Fatalf("queued steps after all readers closed = %d, want 0 (double-decrement would strand or over-retire)", st.QueuedSteps)
	}
}

// Retirement happens after the last release and recycles exactly the
// buffer that was served: the broker's retire span must carry the same
// pool generation as the fetch span of that step, proving the step's
// payload was held — not copied, not prematurely recycled — from
// publish to retirement.
func checkRetireGenEquality(t *testing.T, be Backend) {
	ctx := ctxT(t)
	tr := obs.NewTracer(0)
	be.Broker.SetObserver(tr, nil)
	const steps = 3
	w, err := be.Transport.AttachWriter("c.gen", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := be.Transport.AttachReader("c.gen", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		meta := pool.Get(2)
		copy(meta.Bytes(), []byte{byte(s), 0x11})
		payload := pool.Get(8)
		for i := range payload.Bytes() {
			payload.Bytes()[i] = byte(s + i)
		}
		if err := w.PublishBlockRef(ctx, s, meta, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := r.StepMeta(ctx, s); err != nil {
			t.Fatal(err)
		}
		if _, err := r.FetchBlock(ctx, s, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	spans := tracetest.FromTracer(tr)
	// Every step retires exactly once, after its release.
	tracetest.ExactlyOncePer(t, spans, tracetest.StepKey, tracetest.OfKind(obs.KindBrokerRetire))
	for s := 0; s < steps; s++ {
		fetch := tracetest.ExpectSpan(t, spans, tracetest.OfKind(obs.KindReaderFetch), tracetest.AtStep(s))
		retire := tracetest.ExpectSpan(t, spans, tracetest.OfKind(obs.KindBrokerRetire), tracetest.AtStep(s))
		if fetch.Gen != retire.Gen {
			t.Errorf("step %d: fetch served gen %d but retire recycled gen %d — the broker did not hold one buffer incarnation across the step", s, fetch.Gen, retire.Gen)
		}
		tracetest.ExpectAllBefore(t, spans,
			tracetest.And(tracetest.OfKind(obs.KindReaderFetch), tracetest.AtStep(s)),
			tracetest.And(tracetest.OfKind(obs.KindBrokerRetire), tracetest.AtStep(s)))
	}
}

// attachTempLog mounts a fresh durable log store on the backend's
// broker, rooted in a per-check temp dir. Replay checks call it before
// any traffic so every published step is journaled.
func attachTempLog(t *testing.T, be Backend, opts streamlog.Options) *streamlog.Store {
	t.Helper()
	store, err := streamlog.OpenStore(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	be.Broker.AttachLog(store)
	return store
}

// Shm slot lifecycle: a fetched view of a live step must stay intact
// while the writer keeps publishing (its slot cannot be reclaimed
// before this rank releases the step), and once released the slot must
// actually be reused — same physical storage, new generation, new
// payload — with the fetch-time generation validation still passing.
// The aliasing assertion compares view base pointers, which only a
// genuine shared-memory backend can satisfy; backends without a data
// plane skip.
func checkShmSlotGenerationReuse(t *testing.T, be Backend) {
	if be.MakeShm == nil {
		t.Skip("backend has no shared-memory data plane")
	}
	sbe, cleanup, err := be.MakeShm(flexpath.ShmConfig{}) // default ring: queueDepth+1
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ctx := ctxT(t)
	pay := func(step int) []byte {
		p := make([]byte, 64)
		for i := range p {
			p[i] = byte(step)
		}
		return p
	}
	w, err := sbe.Transport.AttachWriter("c.shm.reuse", 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sbe.Transport.AttachReader("c.shm.reuse", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the window, view both steps without releasing.
	for s := 0; s < 2; s++ {
		if err := w.PublishBlock(ctx, s, nil, pay(s)); err != nil {
			t.Fatal(err)
		}
	}
	v0, err := r.FetchBlock(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v0[0] != 0 || v0[63] != 0 {
		t.Fatalf("step 0 payload corrupt: % x", v0[:4])
	}
	v1, err := r.FetchBlock(ctx, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1[0] != 1 {
		t.Fatalf("step 1 payload corrupt: % x", v1[:4])
	}
	// Release 0, let the writer publish into a fresh slot, and check the
	// still-held step-1 view was not disturbed.
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 2, nil, pay(2)); err != nil {
		t.Fatal(err)
	}
	if v1[0] != 1 || v1[63] != 1 {
		t.Fatalf("held step-1 view disturbed by later publish: % x", v1[:4])
	}
	// Drain to step 3, which cycles the ring (queueDepth+1 = 3 slots)
	// back onto step 0's slot: the new view must alias the same storage
	// with the new step's bytes.
	for s := 1; s <= 2; s++ {
		if err := r.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.PublishBlock(ctx, 3, nil, pay(3)); err != nil {
		t.Fatal(err)
	}
	v3, err := r.FetchBlock(ctx, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v3[0] != 3 || v3[63] != 3 {
		t.Fatalf("reused slot payload corrupt: % x", v3[:4])
	}
	if &v3[0] != &v0[0] {
		t.Fatal("step 3 did not reuse step 0's slot: fetch is not aliasing the shared segment")
	}
	if err := r.ReleaseStep(3); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// Shm ring-full backpressure: with a ring deliberately smaller than the
// queue window (RingSlots 2 against depth 3), publishing step 2 needs
// step 0's slot back, so it must block — even though the broker window
// would admit it — until the reader releases step 0 and retirement
// frees the slot.
func checkShmRingFullBackpressure(t *testing.T, be Backend) {
	if be.MakeShm == nil {
		t.Skip("backend has no shared-memory data plane")
	}
	sbe, cleanup, err := be.MakeShm(flexpath.ShmConfig{RingSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ctx := ctxT(t)
	w, err := sbe.Transport.AttachWriter("c.shm.full", 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := sbe.Transport.AttachReader("c.shm.full", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := 0; s < 2; s++ {
		if err := w.PublishBlock(ctx, s, nil, []byte{byte(s), byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	v0, err := r.FetchBlock(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	published := make(chan error, 1)
	go func() { published <- w.PublishBlock(ctx, 2, nil, []byte{2, 2}) }()
	select {
	case err := <-published:
		t.Fatalf("publish with a full ring returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if v0[0] != 0 {
		t.Fatalf("held view corrupt while ring blocked: % x", v0)
	}
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 2; s++ {
		got, err := r.FetchBlock(ctx, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(s) {
			t.Fatalf("step %d payload = % x", s, got)
		}
		if err := r.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Catch-up readers replay from an arbitrary step: after the live
// workflow consumed (and the broker retired) every step, a reader
// opened at step K must still receive K, K+1, ... in order with the
// exact published bytes — served from the durable log — and io.EOF
// past the end. A second session opened at a later step must start
// exactly there.
func checkReplayFromStepOrdering(t *testing.T, be Backend) {
	ctx := ctxT(t)
	attachTempLog(t, be, streamlog.Options{})
	const steps = 5
	w, err := be.Transport.AttachWriter("c.replay.order", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := be.Transport.AttachReader("c.replay.order", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := w.PublishBlock(ctx, s, []byte(fmt.Sprintf("m%d", s)), []byte(fmt.Sprintf("p%d", s))); err != nil {
			t.Fatal(err)
		}
		if _, err := lr.StepMeta(ctx, s); err != nil {
			t.Fatal(err)
		}
		if err := lr.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.StepMeta(ctx, steps); !errors.Is(err, io.EOF) {
		t.Fatalf("live reader after close = %v, want EOF", err)
	}
	if err := lr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{0, 2} {
		rr, err := flexpath.OpenReaderFrom(be.Transport, "c.replay.order", from)
		if err != nil {
			t.Fatal(err)
		}
		if got := rr.NextStep(); got != from {
			t.Fatalf("NextStep = %d, want %d", got, from)
		}
		if n, err := rr.WriterSize(ctx); err != nil || n != 1 {
			t.Fatalf("WriterSize = %d, %v", n, err)
		}
		for s := from; s < steps; s++ {
			metas, err := rr.StepMeta(ctx, s)
			if err != nil {
				t.Fatalf("replay step %d: %v", s, err)
			}
			if len(metas) != 1 || string(metas[0]) != fmt.Sprintf("m%d", s) {
				t.Fatalf("replay step %d metas = %q", s, metas)
			}
			p, err := rr.FetchBlock(ctx, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if string(p) != fmt.Sprintf("p%d", s) {
				t.Fatalf("replay step %d payload = %q", s, p)
			}
			if err := rr.ReleaseStep(s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rr.StepMeta(ctx, steps); !errors.Is(err, io.EOF) {
			t.Fatalf("replay past end = %v, want EOF", err)
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// The catch-up → live handoff is exactly-once, provable from the
// broker's own spans: steps the broker already retired are served from
// segment reads (log.replay), steps still in the in-memory queue are
// served live (replay.live), and for one replay session every step
// appears in exactly one of the two.
func checkReplayCatchupLiveHandoff(t *testing.T, be Backend) {
	ctx := ctxT(t)
	tr := obs.NewTracer(0)
	reg := obs.NewRegistry()
	be.Broker.SetObserver(tr, reg)
	attachTempLog(t, be, streamlog.Options{})
	const (
		catchup = 3 // steps retired before the replay session opens
		live    = 3 // steps held in memory while the session reads them
		steps   = catchup + live
	)
	w, err := be.Transport.AttachWriter("c.replay.handoff", 0, 1, 2*steps)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := be.Transport.AttachReader("c.replay.handoff", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	publish := func(s int) {
		t.Helper()
		if err := w.PublishBlock(ctx, s, []byte{byte(s)}, []byte{0xAA, byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < catchup; s++ {
		publish(s)
		if _, err := lr.StepMeta(ctx, s); err != nil {
			t.Fatal(err)
		}
		if err := lr.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	// Retirement is asynchronous behind the durability gate; wait until
	// the catch-up half is actually out of memory so those replays can
	// only be satisfied from the log.
	waitFor(t, "catch-up steps to retire", func() bool {
		return len(tracetest.FromTracer(tr).Where(tracetest.OfKind(obs.KindBrokerRetire))) >= catchup
	})
	// The live half is published but never released, so it stays in the
	// in-memory queue while the replay session crosses it.
	for s := catchup; s < steps; s++ {
		publish(s)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err := flexpath.OpenReaderFrom(be.Transport, "c.replay.handoff", 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		p, err := rr.FetchBlock(ctx, s, 0)
		if err != nil {
			t.Fatalf("replay step %d: %v", s, err)
		}
		if len(p) != 2 || p[0] != 0xAA || p[1] != byte(s) {
			t.Fatalf("replay step %d payload = %v", s, p)
		}
		if err := rr.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rr.StepMeta(ctx, steps); !errors.Is(err, io.EOF) {
		t.Fatalf("replay past end = %v, want EOF", err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	for s := catchup; s < steps; s++ {
		if _, err := lr.StepMeta(ctx, s); err != nil {
			t.Fatal(err)
		}
		if err := lr.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := lr.Close(); err != nil {
		t.Fatal(err)
	}
	spans := tracetest.FromTracer(tr).Where(tracetest.OnStream("c.replay.handoff"))
	served := func(s obs.Span) bool {
		return s.Kind == obs.KindLogReplay || s.Kind == obs.KindReplayLive
	}
	tracetest.ExactlyOncePer(t, spans, tracetest.StepKey, served)
	for s := 0; s < catchup; s++ {
		tracetest.ExpectSpan(t, spans, tracetest.OfKind(obs.KindLogReplay), tracetest.AtStep(s))
	}
	for s := catchup; s < steps; s++ {
		tracetest.ExpectSpan(t, spans, tracetest.OfKind(obs.KindReplayLive), tracetest.AtStep(s))
	}
	if got := reg.Snapshot()["log.replayed_steps"]; got != catchup {
		t.Fatalf("log.replayed_steps = %d, want %d", got, catchup)
	}
}

// Retention bounds replay: once the budget evicted a step's segment,
// a catch-up reader positioned before the horizon gets ErrStepRetired
// — not a hang, not silent skipping — and one positioned at the
// horizon replays everything still on disk.
func checkReplayRetentionHorizon(t *testing.T, be Backend) {
	ctx := ctxT(t)
	store := attachTempLog(t, be, streamlog.Options{SegmentBytes: 64, RetainSteps: 2})
	const steps = 8
	w, err := be.Transport.AttachWriter("c.replay.retention", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := be.Transport.AttachReader("c.replay.retention", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := w.PublishBlock(ctx, s, []byte{byte(s)}, []byte{byte(s), 0x55}); err != nil {
			t.Fatal(err)
		}
		if _, err := lr.StepMeta(ctx, s); err != nil {
			t.Fatal(err)
		}
		if err := lr.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.StepMeta(ctx, steps); !errors.Is(err, io.EOF) {
		t.Fatalf("live reader after close = %v, want EOF", err)
	}
	if err := lr.Close(); err != nil {
		t.Fatal(err)
	}
	lg, err := store.Log("c.replay.retention")
	if err != nil {
		t.Fatal(err)
	}
	// Quiesce: the write-behind appender has journaled the final retire
	// and the end record, after which eviction is settled.
	waitFor(t, "log to quiesce", func() bool {
		_, ended := lg.Ended()
		return ended && lg.LastRetired() == steps-1 && lg.FirstStep() >= 1
	})
	horizon := lg.FirstStep()
	rr, err := flexpath.OpenReaderFrom(be.Transport, "c.replay.retention", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.StepMeta(ctx, 0); !errors.Is(err, flexpath.ErrStepRetired) {
		t.Fatalf("replay of evicted step = %v, want ErrStepRetired", err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err = flexpath.OpenReaderFrom(be.Transport, "c.replay.retention", horizon)
	if err != nil {
		t.Fatal(err)
	}
	for s := horizon; s < steps; s++ {
		p, err := rr.FetchBlock(ctx, s, 0)
		if err != nil {
			t.Fatalf("replay step %d (horizon %d): %v", s, horizon, err)
		}
		if len(p) != 2 || p[0] != byte(s) || p[1] != 0x55 {
			t.Fatalf("replay step %d payload = %v", s, p)
		}
		if err := rr.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rr.StepMeta(ctx, steps); !errors.Is(err, io.EOF) {
		t.Fatalf("replay past end = %v, want EOF", err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
}

// Without an attached log store replay is unavailable, and the failure
// is a prompt, explicit error — never a hang or a silent empty stream.
func checkReplayRequiresLog(t *testing.T, be Backend) {
	if _, err := flexpath.OpenReaderFrom(be.Transport, "c.replay.nolog", 0); err == nil {
		t.Fatal("OpenReaderFrom succeeded without a log store")
	}
}

// transient reports whether err advertises itself as retryable via the
// Transient() convention the workflow supervisor uses.
func transient(err error) bool {
	var te interface{ Transient() bool }
	return errors.As(err, &te) && te.Transient()
}

// Chaos: a seeded fault-injection plan (transient errors, connection
// resets, latency) over the backend, with components that retry
// transient failures. The exchange must still deliver every byte of
// every step to every reader exactly once.
func checkChaosFaultInjection(t *testing.T, be Backend) {
	ctx := ctxT(t)
	ft := fault.New(be.Transport, fault.Plan{
		Seed:        42,
		ErrRate:     0.08,
		ResetRate:   0.04,
		LatencyRate: 0.25,
		MaxLatency:  2 * time.Millisecond,
	})
	const (
		writers = 2
		readers = 2
		steps   = 6
		tries   = 200
	)
	retry := func(op func() error) error {
		var err error
		for i := 0; i < tries; i++ {
			if err = op(); err == nil || !transient(err) {
				return err
			}
		}
		return fmt.Errorf("still failing after %d retries: %w", tries, err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for rank := 0; rank < writers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var w adios.BlockWriter
			if err := retry(func() (err error) {
				w, err = ft.AttachWriter("c.chaos", rank, writers, 2)
				return err
			}); err != nil {
				errs <- err
				return
			}
			defer w.Close()
			for s := 0; s < steps; s++ {
				if err := retry(func() error {
					return w.PublishBlock(ctx, s, []byte{byte(rank)}, []byte{byte(rank), byte(s)})
				}); err != nil {
					errs <- err
					return
				}
			}
		}(rank)
	}
	for rank := 0; rank < readers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var r adios.BlockReader
			if err := retry(func() (err error) {
				r, err = ft.AttachReader("c.chaos", rank, readers)
				return err
			}); err != nil {
				errs <- err
				return
			}
			defer r.Close()
			for s := 0; ; s++ {
				var metas [][]byte
				err := retry(func() (err error) {
					metas, err = r.StepMeta(ctx, s)
					return err
				})
				if errors.Is(err, io.EOF) {
					if s != steps {
						errs <- fmt.Errorf("reader %d: EOF at step %d, want %d", rank, s, steps)
					}
					return
				}
				if err != nil {
					errs <- err
					return
				}
				if len(metas) != writers {
					errs <- fmt.Errorf("step %d: %d metas", s, len(metas))
					return
				}
				for wr := 0; wr < writers; wr++ {
					var p []byte
					if err := retry(func() (err error) {
						p, err = r.FetchBlock(ctx, s, wr)
						return err
					}); err != nil {
						errs <- err
						return
					}
					if len(p) != 2 || p[0] != byte(wr) || p[1] != byte(s) {
						errs <- fmt.Errorf("step %d writer %d payload = %v", s, wr, p)
						return
					}
				}
				if err := r.ReleaseStep(s); err != nil {
					errs <- err
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
