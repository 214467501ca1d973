package workflow

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/components"
	"repro/internal/fault"
	"repro/internal/flexpath"
	"repro/internal/ndarray"
	"repro/internal/obs"
	"repro/internal/sb"
)

// pacedProducer is the drill's fast stage: a deterministic resume-aware
// writer that records a metrics sample per step, so the rescale monitor
// sees it racing ahead of the laggy consumer.
type pacedProducer struct {
	rows, cols, steps int
}

func (p *pacedProducer) Name() string { return "paced-producer" }

func (p *pacedProducer) global(step int) *ndarray.Array {
	a := ndarray.New(ndarray.Dim{Name: "rows", Size: p.rows}, ndarray.Dim{Name: "cols", Size: p.cols})
	for i := range a.Data() {
		a.Data()[i] = float64(step*1000 + i)
	}
	return a
}

func (p *pacedProducer) Run(env *sb.Env) error {
	w, err := env.OpenWriter("lag0.fp")
	if err != nil {
		return err
	}
	defer w.Close()
	rank, size := env.Comm.Rank(), env.Comm.Size()
	for s := w.Steps(); s < p.steps; s++ {
		g := p.global(s)
		box := ndarray.PartitionAlong(g.Shape(), 0, size, rank)
		block, err := g.CopyBox(box)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := w.BeginStep(); err != nil {
			return err
		}
		if err := w.Write("data", g.Dims(), box, block.Data()); err != nil {
			return err
		}
		if err := w.EndStep(env.Ctx()); err != nil {
			return err
		}
		if env.Metrics != nil {
			env.Metrics.RecordStep(s, time.Since(start), 0, int64(8*block.Size()))
		}
	}
	return nil
}

// slowIdentity is the lagging stage: a rank-rewritable (Fusable) map
// component whose kernel sleeps a fixed delay per step, so it falls
// behind the producer and triggers the elastic rescale.
type slowIdentity struct {
	delay time.Duration
}

func (c *slowIdentity) Name() string { return "slow-identity" }

func (c *slowIdentity) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: "lag0.fp", Array: "data"},
		{Dir: sb.PortOut, Stream: "lag1.fp", Array: "data"},
	}
}

func (c *slowIdentity) MapSpec() (sb.MapConfig, sb.MapKernel) {
	return sb.MapConfig{
		Name:     c.Name(),
		InStream: "lag0.fp", InArray: "data",
		OutStream: "lag1.fp", OutArray: "data",
	}, c
}

func (c *slowIdentity) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}

func (c *slowIdentity) Transform(in *sb.StepInput) (*sb.StepOutput, error) {
	time.Sleep(c.delay)
	return &sb.StepOutput{
		GlobalDims: in.Var.Dims,
		Box:        in.Box,
		Data:       append([]float64(nil), in.Block.Data()...),
	}, nil
}

func (c *slowIdentity) Run(env *sb.Env) error {
	cfg, kernel := c.MapSpec()
	return sb.RunMap(env, cfg, kernel)
}

var _ sb.Fusable = (*slowIdentity)(nil)

// runLagPipeline runs producer → slow-identity → stats over a bare
// in-process transport and returns the result plus the stats endpoint's
// per-step output.
func runLagPipeline(t *testing.T, opts Options, delay time.Duration) (*Result, []components.StepStats) {
	t.Helper()
	broker := flexpath.NewBroker()
	broker.SetObserver(opts.Tracer, opts.Registry)
	return runLagPipelineOver(t, flexpath.InProc{B: broker}, opts, delay)
}

// runLagPipelineOver is runLagPipeline over the given transport.
func runLagPipelineOver(t *testing.T, transport sb.Transport, opts Options, delay time.Duration) (*Result, []components.StepStats) {
	t.Helper()
	statsC, err := components.NewStats([]string{"lag1.fp", "data"})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name: "rescale-drill",
		Stages: []Stage{
			// Deep queue: the producer must be able to race ahead of the
			// laggy stage for the lag to become visible to the monitor.
			{Instance: &pacedProducer{rows: 8, cols: 2, steps: 10}, Procs: 1, QueueDepth: 8},
			{Instance: &slowIdentity{delay: delay}, Procs: 1},
			{Instance: statsC, Procs: 1},
		},
	}
	res, err := Run(context.Background(), transport, spec, opts)
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, Report(res))
	}
	return res, statsC.(*components.Stats).Results()
}

// TestElasticRescaleDrill is the acceptance drill for elastic stage
// rescaling: a deliberately lagging stage is detected from live registry
// deltas, re-scaled 1 -> 2 ranks at a step boundary via detach/
// re-attach, and the workflow's results are byte-identical to an
// unrescaled reference — exactly-once survives the resize, proven both
// by output comparison and from the broker's span record.
func TestElasticRescaleDrill(t *testing.T) {
	tracer := obs.NewTracer(0)
	reg := obs.NewRegistry()
	res, got := runLagPipeline(t, Options{
		Logf:     t.Logf,
		Tracer:   tracer,
		Registry: reg,
		Rescale: RescalePolicy{
			Enable:     true,
			CheckEvery: 10 * time.Millisecond,
			LagSteps:   2,
			MaxProcs:   2,
			Stages:     []string{"slow-identity"},
		},
	}, 30*time.Millisecond)

	lag := &res.Stages[1]
	if lag.Rescales != 1 {
		t.Fatalf("slow-identity rescales = %d, want 1\n%s", lag.Rescales, Report(res))
	}
	if lag.Stage.Procs != 2 {
		t.Errorf("slow-identity final procs = %d, want 2", lag.Stage.Procs)
	}
	if lag.Restarts != 0 {
		t.Errorf("rescale consumed restart budget: restarts = %d", lag.Restarts)
	}
	if n := reg.Snapshot()["workflow.rescales"]; n != 1 {
		t.Errorf("workflow.rescales = %d, want 1", n)
	}

	// The span record must show the rescale event and prove exactly-once:
	// every output step completed at the broker exactly once — a dropped
	// partial step never emits broker.step, a re-published one only on
	// its single completion.
	if d := tracer.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d spans; completeness argument void", d)
	}
	var rescales int
	outSteps := map[int]int{}
	for _, sp := range tracer.Spans() {
		switch {
		case sp.Kind == obs.KindStageRescale:
			rescales++
			if sp.Note != "slow-identity" || sp.Rank != 1 || sp.Peer != 2 {
				t.Errorf("rescale span = %+v, want slow-identity 1 -> 2", sp)
			}
		case sp.Kind == obs.KindBrokerStep && sp.Stream == "lag1.fp":
			outSteps[sp.Step]++
		}
	}
	if rescales != 1 {
		t.Errorf("stage.rescale spans = %d, want 1", rescales)
	}
	for step := 0; step < 10; step++ {
		if outSteps[step] != 1 {
			t.Errorf("output step %d completed %d times at the broker, want exactly 1", step, outSteps[step])
		}
	}
	if len(outSteps) != 10 {
		t.Errorf("broker completed %d output steps, want 10", len(outSteps))
	}

	// Reference semantics: the rescaled run's analytics must be identical
	// to an unrescaled run of the same pipeline.
	_, want := runLagPipeline(t, Options{}, 0)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rescaled results differ from reference:\n got %+v\nwant %+v", got, want)
	}
	if len(got) != 10 {
		t.Errorf("stats saw %d steps, want 10", len(got))
	}
}

// TestRescaleDisabledWithoutRegistry: the policy alone is not enough —
// without a registry there is no lag signal, so the monitor stays off
// and the run completes unrescaled.
func TestRescaleDisabledWithoutRegistry(t *testing.T) {
	res, got := runLagPipeline(t, Options{
		Rescale: RescalePolicy{Enable: true, CheckEvery: 10 * time.Millisecond, MaxProcs: 2},
	}, 2*time.Millisecond)
	if res.Stages[1].Rescales != 0 || res.Stages[1].Stage.Procs != 1 {
		t.Errorf("monitor ran without a registry: %+v", res.Stages[1])
	}
	if len(got) != 10 {
		t.Errorf("stats saw %d steps, want 10", len(got))
	}
}

// TestRescaleLogsNonResizingTransport: over a transport that cannot
// resize stream groups — here the fault injector, which wraps handles,
// not a broker — the monitor stays off and Run says so in one line
// instead of dropping the policy silently.
func TestRescaleLogsNonResizingTransport(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	res, got := runLagPipelineOver(t, fault.New(flexpath.NewInProc(), fault.Plan{}), Options{
		Logf:     logf,
		Registry: obs.NewRegistry(),
		Rescale:  RescalePolicy{Enable: true, CheckEvery: 10 * time.Millisecond, MaxProcs: 2},
	}, 2*time.Millisecond)
	var off []string
	for _, l := range lines {
		if strings.Contains(l, "rescale disabled") {
			off = append(off, l)
		}
	}
	if len(off) != 1 || !strings.Contains(off[0], "*fault.Transport") {
		t.Errorf("rescale-off log lines = %q, want one naming *fault.Transport", off)
	}
	if res.Stages[1].Rescales != 0 || res.Stages[1].Stage.Procs != 1 {
		t.Errorf("stage rescaled over a non-resizing transport: %+v", res.Stages[1])
	}
	if len(got) != 10 {
		t.Errorf("stats saw %d steps, want 10", len(got))
	}
}

// --- stageCtl unit coverage ---

func TestStageCtlRequestBounds(t *testing.T) {
	policy := RescalePolicy{}.withDefaults() // MaxProcs 8, MaxRescales 1
	c := &stageCtl{procs: 3}
	if !c.maybeRequest(policy) {
		t.Fatal("first request refused")
	}
	if c.target != 6 {
		t.Errorf("target = %d, want doubled 6", c.target)
	}
	if c.maybeRequest(policy) {
		t.Error("second request accepted while one is pending")
	}
	if got := c.take(); got != 6 {
		t.Errorf("take = %d, want 6", got)
	}
	if got := c.take(); got != 0 {
		t.Errorf("take after drain = %d, want 0", got)
	}
	// Budget exhausted: MaxRescales 1 was consumed above.
	if c.maybeRequest(policy) {
		t.Error("request accepted beyond MaxRescales")
	}
}

func TestStageCtlClampAndCeiling(t *testing.T) {
	policy := RescalePolicy{MaxProcs: 4, MaxRescales: 3}.withDefaults()
	c := &stageCtl{procs: 3}
	if !c.maybeRequest(policy) {
		t.Fatal("request refused")
	}
	if c.target != 4 {
		t.Errorf("target = %d, want clamped 4", c.target)
	}
	c.take()
	c.setProcs(4)
	// Already at the ceiling: doubling cannot grow, so no request.
	if c.maybeRequest(policy) {
		t.Error("request accepted at MaxProcs ceiling")
	}
}

func TestStageCtlInterrupt(t *testing.T) {
	c := &stageCtl{procs: 2}
	if err := c.interrupt(); err != nil {
		t.Errorf("idle interrupt = %v, want nil", err)
	}
	c.target = 4
	if err := c.interrupt(); err != sb.ErrRescale {
		t.Errorf("pending interrupt = %v, want ErrRescale", err)
	}
	c.target = 2 // target equals current size: nothing to do
	if err := c.interrupt(); err != nil {
		t.Errorf("no-op target interrupt = %v, want nil", err)
	}
}

func TestRescalePolicyDefaults(t *testing.T) {
	p := RescalePolicy{}.withDefaults()
	if p.CheckEvery != 150*time.Millisecond || p.LagSteps != 2 || p.MaxProcs != 8 || p.MaxRescales != 1 {
		t.Errorf("defaults = %+v", p)
	}
}
