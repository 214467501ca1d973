package workflow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/sb"
)

// testTransient is a self-declared retryable failure, the contract the
// fault injector also follows.
type testTransient struct{ msg string }

func (e *testTransient) Error() string   { return "transient: " + e.msg }
func (e *testTransient) Transient() bool { return true }

// flakyStage fails with a transient error on its first `fails` runs and
// then succeeds — the canonical supervised-restart customer.
type flakyStage struct {
	mu    sync.Mutex
	fails int
	runs  int
}

func (f *flakyStage) Name() string { return "flaky" }

func (f *flakyStage) Run(env *sb.Env) error {
	f.mu.Lock()
	f.runs++
	n := f.runs
	f.mu.Unlock()
	if n <= f.fails {
		return &testTransient{msg: fmt.Sprintf("run %d", n)}
	}
	return nil
}

func TestSupervisorRecoversFlakyStage(t *testing.T) {
	flaky := &flakyStage{fails: 3}
	spec := Spec{Name: "flaky", Stages: []Stage{{Instance: flaky, Procs: 1}}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec.Restart = RestartPolicy{MaxRestarts: 5, Backoff: time.Millisecond}
	res, err := Run(ctx, transport(), spec, Options{})
	if err != nil {
		t.Fatalf("supervised flaky stage failed: %v", err)
	}
	if got := res.Stages[0].Restarts; got != 3 {
		t.Fatalf("Restarts = %d, want 3", got)
	}
	if res.Stages[0].Err != nil {
		t.Fatalf("recovered stage still reports error: %v", res.Stages[0].Err)
	}
}

func TestSupervisorExhaustsRestartBudget(t *testing.T) {
	flaky := &flakyStage{fails: 1 << 30} // never succeeds
	spec := Spec{Name: "hopeless", Stages: []Stage{{Instance: flaky, Procs: 1}}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec.Restart = RestartPolicy{MaxRestarts: 4, Backoff: time.Millisecond}
	res, err := Run(ctx, transport(), spec, Options{})
	if err == nil {
		t.Fatal("exhausted stage reported success")
	}
	if got := res.Stages[0].Restarts; got != 4 {
		t.Fatalf("Restarts = %d, want the full budget of 4", got)
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) {
		t.Fatalf("terminal error lost its cause: %v", err)
	}
	if flaky.runs != 5 { // initial attempt + 4 restarts
		t.Fatalf("component ran %d times, want 5", flaky.runs)
	}
}

func TestSupervisorZeroPolicyDoesNotRestart(t *testing.T) {
	flaky := &flakyStage{fails: 1}
	spec := Spec{Name: "unsupervised", Stages: []Stage{{Instance: flaky, Procs: 1}}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Run(ctx, transport(), spec, Options{})
	if err == nil {
		t.Fatal("unsupervised transient failure reported success")
	}
	if res.Stages[0].Restarts != 0 {
		t.Fatalf("zero policy restarted %d times", res.Stages[0].Restarts)
	}
	if flaky.runs != 1 {
		t.Fatalf("component ran %d times, want 1", flaky.runs)
	}
}

func TestSupervisorStepTimeoutBoundsStalledRead(t *testing.T) {
	// A consumer on a stream nobody writes: without StepTimeout it blocks
	// until the outer context dies; with it, each wait surfaces as a
	// retryable DeadlineExceeded and the restart budget drains promptly.
	spec := Spec{
		Name:   "stalled",
		Stages: []Stage{{Component: "histogram", Args: []string{"never.fp", "x", "4"}, Procs: 1}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	spec.Restart = RestartPolicy{MaxRestarts: 2, Backoff: time.Millisecond, StepTimeout: 50 * time.Millisecond}
	res, err := Run(ctx, transport(), spec, Options{})
	if err == nil {
		t.Fatal("stalled workflow reported success")
	}
	if !errors.Is(res.Stages[0].Err, context.DeadlineExceeded) {
		t.Fatalf("stage error = %v, want DeadlineExceeded", res.Stages[0].Err)
	}
	if got := res.Stages[0].Restarts; got != 2 {
		t.Fatalf("Restarts = %d, want 2", got)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("StepTimeout did not bound the stall: took %s", elapsed)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("bad arguments"), false},
		{"canceled", fmt.Errorf("stage: %w", context.Canceled), false},
		{"aborted", fmt.Errorf("rank 1: %w", mpi.ErrAborted), false},
		{"writer-lost", fmt.Errorf("read: %w", flexpath.ErrWriterLost), false},
		{"closed", fmt.Errorf("publish: %w", flexpath.ErrClosed), false},
		{"transient-probe", fmt.Errorf("step 3: %w", &testTransient{msg: "x"}), true},
		{"deadline", fmt.Errorf("wait: %w", context.DeadlineExceeded), true},
		{"reset", fmt.Errorf("conn: %w", syscall.ECONNRESET), true},
		{"refused", fmt.Errorf("dial: %w", syscall.ECONNREFUSED), true},
		{"epipe", fmt.Errorf("write: %w", syscall.EPIPE), true},
		{"short-read", fmt.Errorf("frame: %w", io.ErrUnexpectedEOF), true},
		{"eof", io.EOF, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
