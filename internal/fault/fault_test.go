package fault

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/pool"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func fresh(plan Plan) *Transport {
	return New(flexpath.NewInProc(), plan)
}

// errPattern drives a fixed op sequence through a faulty transport and
// returns which ops failed — the fault schedule's fingerprint.
// With ref set it publishes through PublishBlockRef.
func errPattern(t *testing.T, tr *Transport, n int, ref bool) []bool {
	t.Helper()
	ctx := ctxT(t)
	w, err := tr.AttachWriter("det.fp", 0, 1, n+1)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer w.Close()
	out := make([]bool, n)
	step := 0
	for i := 0; i < n; i++ {
		var err error
		if ref {
			err = w.PublishBlockRef(ctx, step, pool.Wrap(nil), pool.Wrap([]byte("x")))
		} else {
			err = w.PublishBlock(ctx, step, nil, []byte("x"))
		}
		out[i] = err != nil
		if err == nil {
			step++
		} else if !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d: unexpected non-injected error %v", i, err)
		}
	}
	return out
}

func TestDeterministicSchedule(t *testing.T) {
	plan := Plan{Seed: 42, ErrRate: 0.2, ResetRate: 0.1, Ops: map[Op]bool{OpPublish: true}}
	a := errPattern(t, fresh(plan), 200, false)
	b := errPattern(t, fresh(plan), 200, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("degenerate schedule: %d/%d failures", fails, len(a))
	}
	// A different seed must explore a different schedule.
	plan.Seed = 43
	c := errPattern(t, fresh(plan), 200, false)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestReattachAdvancesGeneration(t *testing.T) {
	// A restarted handle must not replay the exact schedule that killed
	// its predecessor — each attach generation reseeds.
	plan := Plan{Seed: 7, ErrRate: 0.5, Ops: map[Op]bool{OpPublish: true}}
	tr := fresh(plan)
	ctx := ctxT(t)
	attempt := func() []bool {
		w, err := tr.Inner.(flexpath.InProc).B.AttachWriter("gen.fp", 0, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		fw := &faultWriter{BlockWriter: w, t: tr, rng: tr.handleRNG("w", "gen.fp", 0), stream: "gen.fp", rank: 0}
		out := make([]bool, 50)
		step := w.NextStep()
		for i := range out {
			err := fw.PublishBlock(ctx, step, nil, nil)
			out[i] = err != nil
			if err == nil {
				step++
			}
		}
		w.Detach()
		return out
	}
	first, second := attempt(), attempt()
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("re-attach replayed the previous generation's schedule")
	}
}

func TestTransientErrorContract(t *testing.T) {
	tr := fresh(Plan{Seed: 1, ErrRate: 1, Ops: map[Op]bool{OpPublish: true}})
	ctx := ctxT(t)
	w, err := tr.AttachWriter("c.fp", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.PublishBlock(ctx, 0, nil, nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	var transient interface{ Transient() bool }
	if !errors.As(err, &transient) || !transient.Transient() {
		t.Fatalf("injected error does not declare itself transient: %v", err)
	}
	if errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("plain transient error should not present as a reset: %v", err)
	}
	// Wrapping through component error chains must preserve the contract.
	wrapped := fmt.Errorf("scale: step 3: %w", err)
	if !errors.As(wrapped, &transient) {
		t.Fatal("Transient lost through wrapping")
	}

	trr := fresh(Plan{Seed: 1, ResetRate: 1, Ops: map[Op]bool{OpPublish: true}})
	w2, err := trr.AttachWriter("c.fp", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w2.PublishBlock(ctx, 0, nil, nil)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reset injection = %v, want ErrInjected presenting as ECONNRESET", err)
	}
}

func TestOpsFilter(t *testing.T) {
	// With injection restricted to publishes, attaches must never fail.
	tr := fresh(Plan{Seed: 3, ErrRate: 1, Ops: map[Op]bool{OpPublish: true}})
	for i := 0; i < 20; i++ {
		r, err := tr.AttachReader(fmt.Sprintf("f%d.fp", i), 0, 1)
		if err != nil {
			t.Fatalf("filtered attach failed: %v", err)
		}
		r.Close()
	}
}

func TestCrashPointFailsStream(t *testing.T) {
	checkCrashPoint(t, func(ctx context.Context, w adios.BlockWriter, step int) error {
		return w.PublishBlock(ctx, step, nil, []byte{byte(step)})
	})
}

// TestCrashPointOnPublishBlockRef: the scheduled kill fires on the pooled
// publish path exactly as on PublishBlock, and the refs it was handed
// are consumed, not leaked.
func TestCrashPointOnPublishBlockRef(t *testing.T) {
	var bufs []*pool.Buf
	checkCrashPoint(t, func(ctx context.Context, w adios.BlockWriter, step int) error {
		meta, payload := pool.Wrap([]byte{'m'}), pool.Wrap([]byte{byte(step)})
		bufs = append(bufs, meta, payload)
		return w.PublishBlockRef(ctx, step, meta, payload)
	})
	crashed := bufs[len(bufs)-2:]
	for i, b := range crashed {
		if b.Refs() != 0 {
			t.Errorf("crashed publish left buf %d with %d refs, want 0", i, b.Refs())
		}
	}
}

// checkCrashPoint crashes writer rank 0 of a stream at step 2, publishing
// through publish, and checks what the caller and the broker see.
func checkCrashPoint(t *testing.T, publish func(ctx context.Context, w adios.BlockWriter, step int) error) {
	t.Helper()
	broker := flexpath.NewBroker()
	tr := New(flexpath.InProc{B: broker}, Plan{
		Seed:  9,
		Crash: &CrashPoint{Stream: "boom.fp", Rank: 0, Step: 2},
	})
	ctx := ctxT(t)
	w, err := tr.AttachWriter("boom.fp", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := publish(ctx, w, s); err != nil {
			t.Fatalf("pre-crash step %d: %v", s, err)
		}
	}
	err = publish(ctx, w, 2)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash step = %v, want ErrCrashed", err)
	}
	var transient interface{ Transient() bool }
	if errors.As(err, &transient) && transient.Transient() {
		t.Fatal("a crash must not be transient")
	}
	// The broker sees a lost writer, not a graceful close: steps before
	// the crash stay drainable, later waits fail with ErrWriterLost.
	r, err := broker.AttachReader("boom.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := 0; s < 2; s++ {
		if _, err := r.StepMeta(ctx, s); err != nil {
			t.Fatalf("pre-crash step %d unreadable: %v", s, err)
		}
	}
	if _, err := r.StepMeta(ctx, 2); !errors.Is(err, flexpath.ErrWriterLost) {
		t.Fatalf("post-crash wait = %v, want ErrWriterLost", err)
	}
}

// TestPublishBlockRefInjectedErrorReleasesRefs: an injected failure on
// the pooled publish path consumes both references, as the ownership
// contract requires of every handle.
func TestPublishBlockRefInjectedErrorReleasesRefs(t *testing.T) {
	tr := fresh(Plan{Seed: 1, ErrRate: 1, Ops: map[Op]bool{OpPublish: true}})
	w, err := tr.AttachWriter("ref.fp", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	freed := 0
	meta := pool.WrapOnFree([]byte("meta"), func() { freed++ })
	payload := pool.WrapOnFree([]byte("payload"), func() { freed++ })
	if err := w.PublishBlockRef(ctxT(t), 0, meta, payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if meta.Refs() != 0 || payload.Refs() != 0 || freed != 2 {
		t.Fatalf("after injected error: refs meta=%d payload=%d, freed %d; want 0, 0, 2",
			meta.Refs(), payload.Refs(), freed)
	}
}

// TestPublishPathsShareSchedule: both publish paths make the same single
// draw per call, so a seeded plan fails the same operations whichever
// path a component publishes by.
func TestPublishPathsShareSchedule(t *testing.T) {
	plan := Plan{Seed: 42, ErrRate: 0.2, ResetRate: 0.1, Ops: map[Op]bool{OpPublish: true}}
	plain := errPattern(t, fresh(plan), 200, false)
	ref := errPattern(t, fresh(plan), 200, true)
	for i := range plain {
		if plain[i] != ref[i] {
			t.Fatalf("PublishBlock and PublishBlockRef schedules diverge at op %d", i)
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	tr := fresh(Plan{Seed: 5, LatencyRate: 1, MaxLatency: 3 * time.Millisecond, Ops: map[Op]bool{OpPublish: true}})
	ctx := ctxT(t)
	w, err := tr.AttachWriter("slow.fp", 0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := time.Now()
	for s := 0; s < 20; s++ {
		if err := w.PublishBlock(ctx, s, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) == 0 {
		t.Fatal("latency injection added no time")
	}
}
