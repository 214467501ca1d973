// Package controlplane turns sbbroker into a long-running multi-tenant
// service. The data plane — streams, backpressure, durability — is the
// flexpath broker, unchanged; this package adds the control plane over
// it: tenant registration with quotas, workflow submission in the
// existing launch-script format, admission control, live per-plan
// status backed by obs registries, and graceful tenant eviction that
// drains through the broker's durability watermark instead of severing
// live readers.
//
// The split mirrors the paper's separation of concerns: components
// stay oblivious (they attach through whatever sb.Transport the runner
// hands them), and tenancy is carried entirely in stream names — the
// service runs each submission over a flexpath.Namespaced transport
// that prefixes every stream with "tenant/", so isolation holds on all
// four backends without protocol changes.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/flexpath"
	"repro/internal/launch"
	"repro/internal/obs"
	"repro/internal/workflow"

	// The service is a runner: submitted scripts may name any component
	// sbrun can, simulation drivers included.
	_ "repro/internal/sim/gromacs"
	_ "repro/internal/sim/gtcp"
	_ "repro/internal/sim/lammps"
)

// Submission states.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// ErrNotFound reports an unknown tenant or submission id.
var ErrNotFound = errors.New("controlplane: not found")

// TenantSpec is a tenant registration: the broker-enforced stream
// quotas plus the control plane's own workflow-level admission cap.
type TenantSpec struct {
	// MaxStreams, MaxQueueDepth, MaxBytes are enforced by the broker's
	// tenant layer on the data plane (flexpath.TenantQuota). Zero means
	// unlimited.
	MaxStreams    int   `json:"max_streams,omitempty"`
	MaxQueueDepth int   `json:"max_queue_depth,omitempty"`
	MaxBytes      int64 `json:"max_bytes,omitempty"`
	// MaxWorkflows caps concurrently running submissions for the
	// tenant; excess submissions are refused with a retryable quota
	// error rather than queued. Zero means unlimited.
	MaxWorkflows int `json:"max_workflows,omitempty"`
}

// Quota extracts the broker-enforced portion of the spec.
func (ts TenantSpec) Quota() flexpath.TenantQuota {
	return flexpath.TenantQuota{
		MaxStreams:    ts.MaxStreams,
		MaxQueueDepth: ts.MaxQueueDepth,
		MaxBytes:      ts.MaxBytes,
	}
}

// TenantInfo is one tenant's control-plane view: its spec, workflow
// occupancy, and — when the service fronts an in-process broker — the
// broker's live stream/byte accounting.
type TenantInfo struct {
	Tenant   string     `json:"tenant"`
	Spec     TenantSpec `json:"spec"`
	Running  int        `json:"running"`
	Total    int        `json:"total"` // submissions ever accepted
	Evicting bool       `json:"evicting,omitempty"`
	// Streams/BytesLive/BytesLog mirror flexpath.TenantStat when the
	// broker is reachable in-process; zero otherwise.
	Streams   int   `json:"streams,omitempty"`
	BytesLive int64 `json:"bytes_live,omitempty"`
	BytesLog  int64 `json:"bytes_log,omitempty"`
}

// StageStatus is one stage's slice of a submission status.
type StageStatus struct {
	Component string `json:"component"`
	Procs     int    `json:"procs"`
	Restarts  int    `json:"restarts,omitempty"`
	Err       string `json:"err,omitempty"`
}

// Status is the live view of one submission — what GET
// /v1/tenants/{t}/workflows/{id} returns. While the workflow runs,
// Metrics carries the submission's private obs registry snapshot, so
// per-component step counters and restart counts update live.
type Status struct {
	ID        string           `json:"id"`
	Tenant    string           `json:"tenant"`
	Name      string           `json:"name"`
	State     string           `json:"state"`
	Submitted time.Time        `json:"submitted"`
	Finished  time.Time        `json:"finished"`
	Elapsed   time.Duration    `json:"elapsed_ns,omitempty"`
	Stages    []StageStatus    `json:"stages,omitempty"`
	Metrics   map[string]int64 `json:"metrics,omitempty"`
	Err       string           `json:"err,omitempty"`
}

// Done reports whether the submission reached a terminal state.
func (s Status) Done() bool {
	switch s.State {
	case StateSucceeded, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Config wires a Service to its broker.
type Config struct {
	// Transport is the data plane submissions run over; the service
	// namespaces it per tenant. Usually flexpath.InProc over the
	// broker it shares a process with, but any backend client works —
	// the conformance suite runs the service over all four.
	Transport flexpath.Transport
	// Broker, when non-nil, is the in-process broker behind Transport:
	// the service registers tenant quotas on it, reads its per-tenant
	// accounting, and drains it on eviction. Nil degrades gracefully
	// (quotas then exist only at the workflow-admission level).
	Broker *flexpath.Broker
	// Registry receives control-plane counters (cp.submitted,
	// cp.rejected, …); nil disables them.
	Registry *obs.Registry
	// Tracer is handed to every submission's workflow run.
	Tracer *obs.Tracer
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

type tenant struct {
	spec     TenantSpec
	running  int
	total    int
	evicting bool
	// idem maps an idempotency key to the submission id it minted, so a
	// retried submit returns the original submission instead of
	// launching a duplicate.
	idem map[string]string
}

type submission struct {
	id        string
	tenant    string
	name      string
	spec      workflow.Spec
	state     string
	submitted time.Time
	finished  time.Time
	elapsed   time.Duration
	registry  *obs.Registry
	cancel    context.CancelFunc
	result    *workflow.Result
	err       error
}

// Service is the control plane: a tenant registry, a submission table,
// and the goroutines running accepted workflows. Safe for concurrent
// use.
type Service struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenant
	subs    map[string]*submission
	nextID  int
	closed  bool
	wg      sync.WaitGroup

	submitted *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
}

// NewService returns a Service over the given broker wiring.
func NewService(cfg Config) (*Service, error) {
	if cfg.Transport == nil {
		return nil, errors.New("controlplane: Config.Transport is required")
	}
	s := &Service{
		cfg:       cfg,
		tenants:   map[string]*tenant{},
		subs:      map[string]*submission{},
		submitted: cfg.Registry.Counter("cp.submitted"),
		rejected:  cfg.Registry.Counter("cp.rejected"),
		completed: cfg.Registry.Counter("cp.completed"),
		failed:    cfg.Registry.Counter("cp.failed"),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// RegisterTenant registers (or re-registers, updating quotas for) a
// tenant. Broker-level quotas take effect immediately, counting any
// streams the tenant already owns.
func (s *Service) RegisterTenant(name string, spec TenantSpec) error {
	if err := flexpath.ValidTenant(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("controlplane: service closed")
	}
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{idem: map[string]string{}}
		s.tenants[name] = t
	}
	if t.evicting {
		return fmt.Errorf("%w: tenant %q is being evicted", flexpath.ErrTenantEvicted, name)
	}
	t.spec = spec
	if s.cfg.Broker != nil {
		if err := s.cfg.Broker.SetTenantQuota(name, spec.Quota()); err != nil {
			return err
		}
	}
	return nil
}

// Tenants returns every registered tenant's info, sorted by name.
func (s *Service) Tenants() []TenantInfo {
	var brokerStats map[string]flexpath.TenantStat
	if s.cfg.Broker != nil {
		brokerStats = map[string]flexpath.TenantStat{}
		for _, st := range s.cfg.Broker.TenantStats() {
			brokerStats[st.Tenant] = st
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantInfo, 0, len(s.tenants))
	for name, t := range s.tenants {
		info := TenantInfo{Tenant: name, Spec: t.spec, Running: t.running,
			Total: t.total, Evicting: t.evicting}
		if st, ok := brokerStats[name]; ok {
			info.Streams = st.Streams
			info.BytesLive = st.BytesLive
			info.BytesLog = st.BytesLog
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Submit admits one workflow for a tenant. The script rides the wire in
// the existing launch-script format; transport and log directives are
// refused — the service owns the fabric — while a supervise directive
// sets the submission's restart policy. Over-quota submissions
// fail fast with a retryable quota error (never queue silently);
// resubmitting with the same idempotency key returns the original
// submission.
func (s *Service) Submit(tenantName string, req SubmitRequest) (Status, error) {
	spec, err := ValidateScript(req.Name, req.Script)
	if err != nil {
		s.rejected.Inc()
		return Status{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, errors.New("controlplane: service closed")
	}
	t, ok := s.tenants[tenantName]
	if !ok {
		s.mu.Unlock()
		s.rejected.Inc()
		return Status{}, fmt.Errorf("%w: tenant %q is not registered", ErrNotFound, tenantName)
	}
	if t.evicting {
		s.mu.Unlock()
		s.rejected.Inc()
		return Status{}, fmt.Errorf("%w: tenant %q refuses new workflows", flexpath.ErrTenantEvicted, tenantName)
	}
	if req.IdempotencyKey != "" {
		if id, ok := t.idem[req.IdempotencyKey]; ok {
			st := s.statusLocked(s.subs[id])
			s.mu.Unlock()
			return st, nil
		}
	}
	if t.spec.MaxWorkflows > 0 && t.running >= t.spec.MaxWorkflows {
		s.mu.Unlock()
		s.rejected.Inc()
		return Status{}, &flexpath.QuotaError{Msg: fmt.Sprintf(
			"tenant %q at its concurrent-workflow cap (%d)", tenantName, t.spec.MaxWorkflows)}
	}
	// Fail the queue-depth quota at admission, not mid-run: the broker
	// would refuse the first AttachWriter anyway, but a submit-time
	// rejection names the offending stage instead of wedging a run.
	if max := t.spec.MaxQueueDepth; max > 0 {
		for _, st := range spec.Stages {
			depth := st.QueueDepth
			if depth == 0 {
				depth = flexpath.DefaultQueueDepth
			}
			if depth > max {
				s.mu.Unlock()
				s.rejected.Inc()
				return Status{}, &flexpath.QuotaError{Msg: fmt.Sprintf(
					"tenant %q: stage %q queue depth %d exceeds cap %d",
					tenantName, st.Component, depth, max)}
			}
		}
	}

	s.nextID++
	sub := &submission{
		id:        fmt.Sprintf("wf-%d", s.nextID),
		tenant:    tenantName,
		name:      spec.Name,
		spec:      spec,
		state:     StatePending,
		submitted: time.Now(),
		registry:  obs.NewRegistry(),
	}
	s.subs[sub.id] = sub
	if req.IdempotencyKey != "" {
		t.idem[req.IdempotencyKey] = sub.id
	}
	t.running++
	t.total++
	st := s.statusLocked(sub)
	s.mu.Unlock()
	s.submitted.Inc()

	// Streams are scoped twice: the tenant prefix isolates tenants from
	// each other (and is what quotas and eviction key on), and the
	// submission id beneath it isolates concurrent workflows of the SAME
	// tenant — two runs of one script must not collide on "pos.fp". The
	// data plane sees "tenant/wf-N/stream".
	nt, err := flexpath.Namespaced(s.cfg.Transport, tenantName)
	if err == nil {
		nt, err = flexpath.Namespaced(nt, sub.id)
	}
	if err != nil {
		// Tenant names are validated at registration; this is a bug guard.
		s.finish(sub, nil, err)
		return Status{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	sub.cancel = cancel
	sub.state = StateRunning
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		res, runErr := workflow.Run(ctx, nt, sub.spec, workflow.Options{
			Logf:     s.cfg.Logf,
			Tracer:   s.cfg.Tracer,
			Registry: sub.registry,
		})
		s.finish(sub, res, runErr)
	}()
	s.logf("controlplane: tenant %q submitted %q as %s (%d stages)",
		tenantName, spec.Name, sub.id, len(spec.Stages))
	return st, nil
}

// finish records a submission's terminal state and releases its
// admission slot.
func (s *Service) finish(sub *submission, res *workflow.Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub.result = res
	sub.err = err
	sub.finished = time.Now()
	if res != nil {
		sub.elapsed = res.Elapsed
	}
	switch {
	case err == nil:
		sub.state = StateSucceeded
		s.completed.Inc()
	case errors.Is(err, context.Canceled):
		sub.state = StateCancelled
		s.completed.Inc()
	default:
		sub.state = StateFailed
		s.failed.Inc()
	}
	if t, ok := s.tenants[sub.tenant]; ok {
		t.running--
	}
	s.cond.Broadcast()
}

// statusLocked renders a submission; s.mu must be held.
func (s *Service) statusLocked(sub *submission) Status {
	st := Status{
		ID:        sub.id,
		Tenant:    sub.tenant,
		Name:      sub.name,
		State:     sub.state,
		Submitted: sub.submitted,
		Finished:  sub.finished,
		Elapsed:   sub.elapsed,
		Metrics:   sub.registry.Snapshot(),
	}
	if sub.err != nil {
		st.Err = sub.err.Error()
	}
	if sub.result != nil {
		for _, sr := range sub.result.Stages {
			ss := StageStatus{Component: sr.Stage.Component, Procs: sr.Stage.Procs,
				Restarts: sr.Restarts}
			if sr.Err != nil {
				ss.Err = sr.Err.Error()
			}
			st.Stages = append(st.Stages, ss)
		}
	} else {
		for _, stage := range sub.spec.Stages {
			st.Stages = append(st.Stages, StageStatus{Component: stage.Component, Procs: stage.Procs})
		}
	}
	return st
}

// Stat returns one submission's live status.
func (s *Service) Stat(tenantName, id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[id]
	if !ok || sub.tenant != tenantName {
		return Status{}, fmt.Errorf("%w: tenant %q has no submission %q", ErrNotFound, tenantName, id)
	}
	return s.statusLocked(sub), nil
}

// List returns every submission of the tenant, oldest first.
func (s *Service) List(tenantName string) ([]Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[tenantName]; !ok {
		return nil, fmt.Errorf("%w: tenant %q is not registered", ErrNotFound, tenantName)
	}
	var out []Status
	for _, sub := range s.subs {
		if sub.tenant == tenantName {
			out = append(out, s.statusLocked(sub))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Submitted.Before(out[j].Submitted) })
	return out, nil
}

// Cancel aborts a running submission; terminal submissions are left
// untouched (cancel is idempotent).
func (s *Service) Cancel(tenantName, id string) (Status, error) {
	s.mu.Lock()
	sub, ok := s.subs[id]
	if !ok || sub.tenant != tenantName {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: tenant %q has no submission %q", ErrNotFound, tenantName, id)
	}
	cancel := sub.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return s.Stat(tenantName, id)
}

// Wait blocks until the submission reaches a terminal state (or ctx
// expires) and returns its final status.
func (s *Service) Wait(ctx context.Context, tenantName, id string) (Status, error) {
	for {
		st, err := s.Stat(tenantName, id)
		if err != nil || st.Done() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// EvictTenant gracefully removes a tenant: new submissions are refused
// immediately, running workflows are awaited (bounded by ctx), and the
// tenant's broker streams are drained through the durability watermark
// (flexpath.Broker.EvictTenant) before its registration is dropped. On
// ctx expiry the tenant stays sealed — evicting, refusing work — so a
// retry can finish the job; live readers are never severed.
func (s *Service) EvictTenant(ctx context.Context, tenantName string) error {
	s.mu.Lock()
	t, ok := s.tenants[tenantName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: tenant %q is not registered", ErrNotFound, tenantName)
	}
	t.evicting = true
	// Wait out running workflows; they finish on their own and eviction
	// is graceful, not a kill.
	done := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	go func() {
		defer close(done)
		s.mu.Lock()
		for t.running > 0 && ctx.Err() == nil {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}()
	s.mu.Unlock()
	<-done
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("controlplane: evicting tenant %q: %d workflow(s) still running: %w",
			tenantName, s.runningOf(tenantName), err)
	}
	if s.cfg.Broker != nil {
		if err := s.cfg.Broker.EvictTenant(ctx, tenantName); err != nil {
			return fmt.Errorf("controlplane: draining tenant %q streams: %w", tenantName, err)
		}
	}
	s.mu.Lock()
	delete(s.tenants, tenantName)
	s.mu.Unlock()
	s.logf("controlplane: tenant %q evicted", tenantName)
	return nil
}

func (s *Service) runningOf(tenantName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenantName]; ok {
		return t.running
	}
	return 0
}

// Close stops admitting work, cancels every running submission, and
// waits for their goroutines.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var cancels []context.CancelFunc
	for _, sub := range s.subs {
		if sub.cancel != nil && sub.state == StateRunning {
			cancels = append(cancels, sub.cancel)
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	s.wg.Wait()
	return nil
}

// ValidateScript parses a submitted launch script and enforces the
// control plane's wire rules: the script format is exactly the one
// sbrun executes from disk, but fabric-owning directives (transport,
// log) are refused — the broker service decides where streams live and
// what is journaled, not the tenant. A supervise directive is the
// tenant's to set: it rides in the spec to the submission's run. A
// fuse directive is applied here, so the returned spec is the one that
// runs. A script whose plan lint reports an error is refused, naming
// the error.
func ValidateScript(name, script string) (workflow.Spec, error) {
	if name == "" {
		name = "workflow"
	}
	spec, err := launch.Parse(name, script)
	if err != nil {
		return workflow.Spec{}, err
	}
	if spec.Transport.Kind != "" || len(spec.EdgeTransports) > 0 {
		return workflow.Spec{}, fmt.Errorf(
			"controlplane: script %q: transport directives are owned by the broker service", name)
	}
	if spec.LogDir != "" {
		return workflow.Spec{}, fmt.Errorf(
			"controlplane: script %q: the log directive is owned by the broker service", name)
	}
	// Refuse a mis-wired script as sbrun does: admitted, its reader would
	// block forever on a stream no stage publishes, holding one of the
	// tenant's workflow slots.
	plan, err := workflow.BuildPlan(spec)
	if err != nil {
		return workflow.Spec{}, err
	}
	if errs := plan.Errors(); len(errs) > 0 {
		return workflow.Spec{}, fmt.Errorf("controlplane: script %q is mis-wired: %s",
			name, strings.Join(errs, "; "))
	}
	// Fuse here, once, so the submission's status lists the stages that
	// run from the moment it exists.
	return plan.LaunchSpec(nil)
}
