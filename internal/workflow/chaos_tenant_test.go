package workflow

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/flexpath"
	"repro/internal/ndarray"
	"repro/internal/sb"
	"repro/internal/streamlog"
)

// loggedStep is one journaled step of a recorded stream, blobs copied
// out of the log's views.
type loggedStep struct {
	step            int
	metas, payloads [][]byte
}

// readLogged loads every journaled step of one stream from a recording
// directory, plus whether the stream ended gracefully.
func readLogged(t *testing.T, dir, stream string) ([]loggedStep, bool) {
	t.Helper()
	store, err := streamlog.OpenStore(dir, streamlog.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lg, err := store.Log(stream)
	if err != nil {
		t.Fatal(err)
	}
	var steps []loggedStep
	it := lg.Iter()
	for {
		step, metas, payloads, release, err := it.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				_, ended := lg.Ended()
				return steps, ended
			}
			t.Fatalf("stream %q step %d: %v", stream, it.NextStep(), err)
		}
		ls := loggedStep{step: step, metas: make([][]byte, len(metas)), payloads: make([][]byte, len(payloads))}
		for i := range metas {
			ls.metas[i] = append([]byte(nil), metas[i]...)
			ls.payloads[i] = append([]byte(nil), payloads[i]...)
		}
		release()
		steps = append(steps, ls)
	}
}

// assertLoggedIdentical demands the stream's recording in got is byte
// for byte the recording in want.
func assertLoggedIdentical(t *testing.T, wantDir, gotDir, stream string) {
	t.Helper()
	want, wantEnded := readLogged(t, wantDir, stream)
	got, gotEnded := readLogged(t, gotDir, stream)
	if len(got) != len(want) {
		t.Fatalf("stream %q: %d step(s) recorded, want %d", stream, len(got), len(want))
	}
	for i := range want {
		if got[i].step != want[i].step {
			t.Fatalf("stream %q position %d holds step %d, want %d", stream, i, got[i].step, want[i].step)
		}
		for r := range want[i].metas {
			if !bytes.Equal(got[i].metas[r], want[i].metas[r]) {
				t.Fatalf("stream %q step %d rank %d: metadata differs from the solo run", stream, want[i].step, r)
			}
			if !bytes.Equal(got[i].payloads[r], want[i].payloads[r]) {
				t.Fatalf("stream %q step %d rank %d: payload differs from the solo run", stream, want[i].step, r)
			}
		}
	}
	if gotEnded != wantEnded {
		t.Fatalf("stream %q: ended=%v, want %v", stream, gotEnded, wantEnded)
	}
}

// stormyProducer is a chaosProducer whose writer keeps crashing: after
// publishing a step it takes one failure from a shared budget and dies
// with a transient error, forcing a supervised restart that re-attaches
// and resumes at the published head. Failures are confined to steps
// where the queue window still parks the surviving rank (step <
// steps-1-depth): a rank that ran to completion closes its slot
// gracefully, and a graceful close beside a detached-for-restart slot
// would seal the writer group against the re-attach. The data is
// byte-identical to chaosProducer's — the storm is pure control-plane
// noise.
type stormyProducer struct {
	chaosProducer
	mu       sync.Mutex
	failures int
}

// errStorm is the deterministic injected writer failure — transient, so
// the supervisor restarts the stage.
var errStorm = &stormError{}

type stormError struct{}

func (*stormError) Error() string   { return "chaos: injected writer failure (storm)" }
func (*stormError) Transient() bool { return true }

func (p *stormyProducer) takeFailure() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failures > 0 {
		p.failures--
		return true
	}
	return false
}

func (p *stormyProducer) Run(env *sb.Env) error {
	w, err := env.OpenWriter("chaos0.fp")
	if err != nil {
		return err
	}
	// No deferred Close: the injected failure is a synthetic return, not
	// a transport-op error, so it does not poison the HandleSet — a
	// deferred Close on the way out would gracefully close the writer
	// slot and seal the group against the restart's re-attach. Close
	// only on success; on failure the supervisor detaches the handle.
	rank, size := env.Comm.Rank(), env.Comm.Size()
	for s := w.Steps(); s < p.steps; s++ {
		g := p.global(s)
		box := ndarray.PartitionAlong(g.Shape(), 0, size, rank)
		block, err := g.CopyBox(box)
		if err != nil {
			return err
		}
		if err := w.BeginStep(); err != nil {
			return err
		}
		if err := w.Write("data", g.Dims(), box, block.Data()); err != nil {
			return err
		}
		if err := w.EndStep(env.Ctx()); err != nil {
			return err
		}
		if s < p.steps-1-flexpath.DefaultQueueDepth && p.takeFailure() {
			return errStorm
		}
	}
	return w.Close()
}

// TestChaosTenantIsolation is the multi-tenant noisy-neighbor drill:
// one broker carries two tenants' pipelines concurrently — the "noisy"
// tenant's writer crashes over and over (a deterministic restart storm,
// plus fault-injected latency jitter on every transport op) while the
// "calm" tenant runs with NO restart budget at all — and the calm
// tenant's recorded streams must be byte-identical to a solo fault-free
// run. Tenancy is a real partition: a neighbor's crash/restart storm
// may not perturb so much as one byte of another tenant's output, and
// may not leak a single retryable failure across the namespace (calm
// would fail immediately, having no restarts to absorb one).
func TestChaosTenantIsolation(t *testing.T) {
	calmSpec := func() (Spec, *chaosProducer) {
		prod := &chaosProducer{rows: 24, cols: 3, steps: 6, seed: 20260808}
		spec, _, _ := chaosSpec(t, prod)
		return spec, prod
	}

	// Solo reference: the calm tenant alone on its own logged broker.
	refDir := t.TempDir()
	{
		store, err := streamlog.OpenStore(refDir, streamlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := flexpath.NewBroker()
		b.AttachLog(store)
		nt, err := flexpath.Namespaced(flexpath.InProc{B: b}, "calm")
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := calmSpec()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := Run(ctx, nt, spec, Options{})
		if err != nil || res.Err() != nil {
			t.Fatalf("solo reference run failed: %v / %v", err, res.Err())
		}
		if err := b.FlushLog(ctx); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Shared broker: calm and noisy concurrently, noisy under the storm.
	sharedDir := t.TempDir()
	store, err := streamlog.OpenStore(sharedDir, streamlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := flexpath.NewBroker()
	b.AttachLog(store)
	calmT, err := flexpath.Namespaced(flexpath.InProc{B: b}, "calm")
	if err != nil {
		t.Fatal(err)
	}
	noisyT, err := flexpath.Namespaced(flexpath.InProc{B: b}, "noisy")
	if err != nil {
		t.Fatal(err)
	}
	// Latency jitter on every noisy-tenant transport op keeps the two
	// pipelines' interleaving adversarial; the restarts themselves come
	// from the stormy producer, deterministically.
	stormy := fault.New(noisyT, fault.Plan{
		Seed:        13,
		LatencyRate: 0.3,
		MaxLatency:  2 * time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	type runOut struct {
		res *Result
		err error
	}
	calmDone := make(chan runOut, 1)
	noisyDone := make(chan runOut, 1)
	go func() {
		spec, _ := calmSpec()
		res, err := Run(ctx, calmT, spec, Options{})
		calmDone <- runOut{res, err}
	}()
	go func() {
		prod := &stormyProducer{
			chaosProducer: chaosProducer{rows: 24, cols: 3, steps: 6, seed: 424242},
			failures:      4,
		}
		spec, _, _ := chaosSpec(t, &prod.chaosProducer)
		spec.Stages[0].Instance = prod
		spec.Restart = RestartPolicy{MaxRestarts: 50, Backoff: time.Millisecond, StepTimeout: 10 * time.Second}
		res, err := Run(ctx, stormy, spec, Options{})
		noisyDone <- runOut{res, err}
	}()

	noisy := <-noisyDone
	if noisy.err != nil {
		t.Fatalf("noisy tenant did not survive its own storm: %v\n%s", noisy.err, Report(noisy.res))
	}
	restarts := 0
	for _, sr := range noisy.res.Stages {
		restarts += sr.Restarts
	}
	if restarts == 0 {
		t.Fatalf("storm injected no recoverable faults — the drill exercised nothing\n%s", Report(noisy.res))
	}

	calm := <-calmDone
	if calm.err != nil {
		t.Fatalf("calm tenant perturbed by its neighbor's storm: %v\n%s", calm.err, Report(calm.res))
	}
	for i, sr := range calm.res.Stages {
		if sr.Restarts != 0 {
			t.Fatalf("calm stage %d restarted %d time(s): the neighbor's faults crossed the namespace", i, sr.Restarts)
		}
	}

	if err := b.FlushLog(ctx); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The proof: the calm tenant's recorded streams are byte-identical
	// to the solo run's, end records included.
	for _, stream := range []string{"calm/chaos0.fp", "calm/chaos1.fp"} {
		assertLoggedIdentical(t, refDir, sharedDir, stream)
	}
	t.Logf("noisy tenant absorbed %d supervised restart(s); calm tenant's recording is byte-identical to its solo run", restarts)
}
