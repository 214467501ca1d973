package controlplane

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flexpath"
	"repro/internal/obs"
)

// demoScript is a three-stage workflow in the launch-script wire
// format: a gromacs mini-app feeding a magnitude filter feeding a
// histogram writing to histPath.
func demoScript(histPath string) string {
	return fmt.Sprintf(`
# distance-histogram demo
aprun -n 1 gromacs pos.fp xyz 48 2 7 &
aprun -n 1 magnitude pos.fp xyz dist.fp radii &
aprun -n 1 histogram dist.fp radii 4 %s &
wait
`, histPath)
}

// parkedScript is a producer with no consumer: it fills its stream's
// queue window and parks, so the submission runs until cancelled.
const parkedScript = `
aprun -n 1 gromacs park.fp xyz 16 500 7 &
wait
`

func newTestService(t *testing.T) (*Service, *flexpath.Broker) {
	t.Helper()
	b := flexpath.NewBroker()
	s, err := NewService(Config{
		Transport: flexpath.InProc{B: b},
		Broker:    b,
		Registry:  obs.NewRegistry(),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, b
}

func mustRegister(t *testing.T, s *Service, tenant string, spec TenantSpec) {
	t.Helper()
	if err := s.RegisterTenant(tenant, spec); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitRunsWorkflowToCompletion(t *testing.T) {
	s, b := newTestService(t)
	mustRegister(t, s, "alice", TenantSpec{})

	histPath := filepath.Join(t.TempDir(), "hist.txt")
	st, err := s.Submit("alice", SubmitRequest{Name: "demo", Script: demoScript(histPath)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" || st.Name != "demo" || st.ID == "" {
		t.Fatalf("submit status = %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, "alice", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded {
		t.Fatalf("final state = %q, err = %q", final.State, final.Err)
	}
	if len(final.Stages) != 3 || final.Stages[0].Component != "gromacs" {
		t.Fatalf("stages = %+v", final.Stages)
	}
	// Live status is backed by the submission's private registry: the
	// per-component collectors must have reported there.
	if final.Metrics["comp.histogram.step_samples"] == 0 ||
		final.Metrics["comp.gromacs.step_samples"] == 0 {
		t.Fatalf("submission registry is empty of progress counters: %v", final.Metrics)
	}
	data, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# step 1") {
		t.Fatalf("histogram output missing steps:\n%s", data)
	}
	// Tenancy reached the data plane: every stream the run created is
	// namespaced under the tenant and submission, ended cleanly, and
	// holds no queued steps.
	for _, ss := range b.StreamStats() {
		if !strings.HasPrefix(ss.Name, "alice/"+st.ID+"/") {
			t.Fatalf("stream %q escaped the tenant/submission namespace", ss.Name)
		}
		if !ss.Ended || ss.QueuedSteps != 0 || ss.Failed != "" {
			t.Fatalf("stream %q did not settle: %+v", ss.Name, ss)
		}
	}
	list, err := s.List("alice")
	if err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("List = %+v, %v", list, err)
	}
}

// flakyAttach fails the first writer attach to a stream whose name ends
// in suffix with a transient error, then passes everything through.
type flakyAttach struct {
	flexpath.Transport
	suffix string
	mu     sync.Mutex
	fired  bool
}

type transientAttachError struct{}

func (transientAttachError) Error() string   { return "injected transient attach failure" }
func (transientAttachError) Transient() bool { return true }

func (f *flakyAttach) AttachWriter(stream string, rank, size, depth int) (flexpath.WriterHandle, error) {
	f.mu.Lock()
	fire := !f.fired && strings.HasSuffix(stream, f.suffix)
	f.fired = f.fired || fire
	f.mu.Unlock()
	if fire {
		return nil, transientAttachError{}
	}
	return f.Transport.AttachWriter(stream, rank, size, depth)
}

// TestSubmitSuperviseDirective: a submitted script's supervise directive
// is the submission's restart policy. The same injected transient
// fault fails the script without the directive and is survived, with
// the restart counted in the status, with it.
func TestSubmitSuperviseDirective(t *testing.T) {
	run := func(t *testing.T, directive string) Status {
		b := flexpath.NewBroker()
		s, err := NewService(Config{
			Transport: &flakyAttach{Transport: flexpath.InProc{B: b}, suffix: "/pos.fp"},
			Broker:    b,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		mustRegister(t, s, "alice", TenantSpec{})
		script := directive + demoScript(filepath.Join(t.TempDir(), "hist.txt"))
		st, err := s.Submit("alice", SubmitRequest{Name: "flaky", Script: script})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		final, err := s.Wait(ctx, "alice", st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return final
	}

	if final := run(t, ""); final.State != StateFailed {
		t.Fatalf("unsupervised submission survived the fault: state %q", final.State)
	}
	final := run(t, "supervise restarts=3 backoff=1ms step-timeout=10s\n")
	if final.State != StateSucceeded {
		t.Fatalf("supervised submission state = %q, err = %q", final.State, final.Err)
	}
	restarts := 0
	for _, stage := range final.Stages {
		restarts += stage.Restarts
	}
	if restarts == 0 {
		t.Fatalf("status shows no restart after an injected fault: %+v", final.Stages)
	}
}

func TestSubmitRejectsUnknownTenantAndBadScripts(t *testing.T) {
	s, _ := newTestService(t)
	if _, err := s.Submit("ghost", SubmitRequest{Script: "aprun -n 1 gromacs a.fp x 8 1 &"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown tenant: err = %v, want ErrNotFound", err)
	}
	mustRegister(t, s, "alice", TenantSpec{})
	cases := []struct{ name, script, want string }{
		{"parse error", "aprun -n nope gromacs a.fp x 8 1", "process count"},
		{"no stages", "# empty\n", "no aprun lines"},
		{"transport directive", "transport tcp 127.0.0.1:9\naprun -n 1 gromacs a.fp x 8 1 &", "transport directives are owned"},
		{"log directive", "log /tmp/x\naprun -n 1 gromacs a.fp x 8 1 &", "log directive is owned"},
		{"replay directive", "replay /tmp/x\naprun -n 1 gromacs a.fp x 8 1 &", "expected a line starting with aprun"},
		{"bad supervise directive", "supervise restarts=-2\naprun -n 1 gromacs a.fp x 8 1 &", "non-negative integer"},
		{"per-stream transport", "transport tcp 127.0.0.1:9 stream=a.fp\naprun -n 1 gromacs a.fp x 8 1 &", "owned"},
	}
	for _, c := range cases {
		_, err := s.Submit("alice", SubmitRequest{Name: c.name, Script: c.script})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	// Nothing was admitted.
	if list, _ := s.List("alice"); len(list) != 0 {
		t.Fatalf("rejected submissions appeared in the table: %+v", list)
	}
}

func TestSubmitIdempotencyKey(t *testing.T) {
	s, _ := newTestService(t)
	mustRegister(t, s, "alice", TenantSpec{})
	hist := filepath.Join(t.TempDir(), "h.txt")
	req := SubmitRequest{Name: "demo", Script: demoScript(hist), IdempotencyKey: "deploy-42"}
	first, err := s.Submit("alice", req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit("alice", req)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("idempotent resubmit minted a new submission: %q vs %q", second.ID, first.ID)
	}
	other, err := s.Submit("alice", SubmitRequest{Name: "demo2",
		Script: demoScript(filepath.Join(t.TempDir(), "h2.txt")), IdempotencyKey: "deploy-43"})
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == first.ID {
		t.Fatal("distinct idempotency keys shared a submission")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, err := s.Wait(ctx, "alice", first.ID); err != nil || st.State != StateSucceeded {
		t.Fatalf("first: %+v, %v", st, err)
	}
	if st, err := s.Wait(ctx, "alice", other.ID); err != nil || st.State != StateSucceeded {
		t.Fatalf("other: %+v, %v", st, err)
	}
	// The key survives completion: a late retry still maps to the done
	// submission instead of re-running it.
	again, err := s.Submit("alice", req)
	if err != nil || again.ID != first.ID {
		t.Fatalf("post-completion retry: %+v, %v", again, err)
	}
	if again.State != StateSucceeded {
		t.Fatalf("post-completion retry state = %q", again.State)
	}
}

func TestMaxWorkflowsAdmissionAndCancel(t *testing.T) {
	s, _ := newTestService(t)
	mustRegister(t, s, "alice", TenantSpec{MaxWorkflows: 1})
	st, err := s.Submit("alice", SubmitRequest{Name: "parked", Script: parkedScript})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit("alice", SubmitRequest{Name: "second", Script: parkedScript})
	if !errors.Is(err, flexpath.ErrQuotaExceeded) {
		t.Fatalf("over-cap submit: err = %v, want ErrQuotaExceeded", err)
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatalf("workflow-cap rejection is not retryable: %v", err)
	}
	if _, err := s.Cancel("alice", st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, "alice", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("cancelled submission state = %q (err %q)", final.State, final.Err)
	}
	// The slot freed: admission succeeds again.
	st2, err := s.Submit("alice", SubmitRequest{Name: "after", Script: parkedScript})
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if _, err := s.Cancel("alice", st2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx, "alice", st2.ID); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDepthQuotaRejectsAtSubmit(t *testing.T) {
	s, _ := newTestService(t)
	mustRegister(t, s, "alice", TenantSpec{MaxQueueDepth: 2})
	_, err := s.Submit("alice", SubmitRequest{Name: "deep",
		Script: "aprun -n 1 -q 8 gromacs a.fp x 8 1 &\nwait\n"})
	if !errors.Is(err, flexpath.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if !strings.Contains(err.Error(), "queue depth 8") {
		t.Fatalf("rejection does not name the offending depth: %v", err)
	}
	// Within the cap is fine (default depth 2 == cap).
	hist := filepath.Join(t.TempDir(), "h.txt")
	st, err := s.Submit("alice", SubmitRequest{Name: "ok", Script: demoScript(hist)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := s.Wait(ctx, "alice", st.ID); err != nil || final.State != StateSucceeded {
		t.Fatalf("in-cap workflow: %+v, %v", final, err)
	}
}

func TestTenantInfoReflectsBrokerAccounting(t *testing.T) {
	s, b := newTestService(t)
	mustRegister(t, s, "alice", TenantSpec{MaxStreams: 8, MaxWorkflows: 3})
	// Park a writer so the broker holds live bytes for the tenant.
	w, err := b.AttachWriter("alice/raw", 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(context.Background(), 0, []byte("meta"), []byte("data")); err != nil {
		t.Fatal(err)
	}
	infos := s.Tenants()
	if len(infos) != 1 {
		t.Fatalf("Tenants = %+v", infos)
	}
	info := infos[0]
	if info.Tenant != "alice" || info.Spec.MaxStreams != 8 {
		t.Fatalf("info = %+v", info)
	}
	if info.Streams != 1 || info.BytesLive != 8 {
		t.Fatalf("broker accounting not mirrored: %+v", info)
	}
	if err := w.Crash(errors.New("test over")); err != nil {
		t.Fatal(err)
	}
}

func TestEvictTenantLifecycle(t *testing.T) {
	s, b := newTestService(t)
	mustRegister(t, s, "alice", TenantSpec{})
	st, err := s.Submit("alice", SubmitRequest{Name: "parked", Script: parkedScript})
	if err != nil {
		t.Fatal(err)
	}
	// Eviction with a running workflow: bounded wait expires, the
	// tenant stays sealed.
	shortCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	err = s.EvictTenant(shortCtx, "alice")
	cancel()
	if err == nil {
		t.Fatal("eviction succeeded with a workflow still running")
	}
	if _, err := s.Submit("alice", SubmitRequest{Name: "late", Script: parkedScript}); !errors.Is(err, flexpath.ErrTenantEvicted) {
		t.Fatalf("submit to sealed tenant: err = %v, want ErrTenantEvicted", err)
	}
	// Drain the workflow and retry: eviction completes and the tenant
	// (and its broker registration) disappear.
	if _, err := s.Cancel("alice", st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if _, err := s.Wait(ctx, "alice", st.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.EvictTenant(ctx, "alice"); err != nil {
		t.Fatalf("final eviction: %v", err)
	}
	if got := s.Tenants(); len(got) != 0 {
		t.Fatalf("tenant survived eviction: %+v", got)
	}
	if got := b.TenantStats(); len(got) != 0 {
		t.Fatalf("broker registration survived eviction: %+v", got)
	}
	if err := s.EvictTenant(ctx, "alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double eviction: err = %v, want ErrNotFound", err)
	}
}

func TestRegisterTenantValidation(t *testing.T) {
	s, _ := newTestService(t)
	for _, bad := range []string{"", "a/b", "a b"} {
		if err := s.RegisterTenant(bad, TenantSpec{}); err == nil {
			t.Errorf("RegisterTenant(%q) accepted", bad)
		}
	}
	// Re-registration updates quotas in place.
	mustRegister(t, s, "alice", TenantSpec{MaxWorkflows: 1})
	mustRegister(t, s, "alice", TenantSpec{MaxWorkflows: 5})
	if got := s.Tenants()[0].Spec.MaxWorkflows; got != 5 {
		t.Fatalf("re-registration did not update: MaxWorkflows = %d", got)
	}
}

func TestStatUnknownSubmission(t *testing.T) {
	s, _ := newTestService(t)
	mustRegister(t, s, "alice", TenantSpec{})
	if _, err := s.Stat("alice", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel("alice", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel: err = %v, want ErrNotFound", err)
	}
	if _, err := s.List("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("list: err = %v, want ErrNotFound", err)
	}
}
