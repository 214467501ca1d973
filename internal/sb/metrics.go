package sb

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metrics collects per-timestep measurements from every rank of one
// component. It is safe for concurrent use by all rank goroutines. The
// evaluation section of the paper reports exactly these quantities:
// per-component timestep completion times "averaged over the component's
// communicator" (§V-B) and per-process throughputs derived from them.
type Metrics struct {
	mu        sync.Mutex
	component string
	steps     map[int]*stepAgg
	started   time.Time
	finished  time.Time

	// Registry mirrors (see BindRegistry); nil instruments are no-ops,
	// so an unbound collector pays nothing extra per RecordStep.
	regSteps    *obs.Counter
	regBytesIn  *obs.Counter
	regBytesOut *obs.Counter
	regStepNs   *obs.Histogram
}

type stepAgg struct {
	totalDur time.Duration
	samples  int
	bytesIn  int64
	bytesOut int64
}

// NewMetrics creates a collector for a component with the given name.
func NewMetrics(component string) *Metrics {
	return &Metrics{component: component, steps: map[int]*stepAgg{}}
}

// Component returns the component name the collector belongs to.
func (m *Metrics) Component() string { return m.component }

// BindRegistry makes the collector mirror every RecordStep into registry
// instruments under the "comp.<name>." prefix: step_samples, bytes_in,
// bytes_out, and a step_ns latency histogram. The per-step aggregation
// that the paper's tables report is unchanged; the registry view is what
// the -metrics-addr endpoint and workflow reports consume. Nil-safe.
func (m *Metrics) BindRegistry(r *obs.Registry) {
	if m == nil || r == nil {
		return
	}
	p := "comp." + m.component + "."
	m.mu.Lock()
	m.regSteps = r.Counter(p + "step_samples")
	m.regBytesIn = r.Counter(p + "bytes_in")
	m.regBytesOut = r.Counter(p + "bytes_out")
	m.regStepNs = r.Histogram(p + "step_ns")
	m.mu.Unlock()
}

// MarkStarted records the wall-clock start of the component (first rank
// to arrive wins).
func (m *Metrics) MarkStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started.IsZero() {
		m.started = time.Now()
	}
}

// MarkFinished records the wall-clock end (last rank to finish wins).
func (m *Metrics) MarkFinished() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = time.Now()
}

// RecordStep adds one rank's measurement of one timestep: how long the
// rank spent on it and how many payload bytes it read and wrote.
func (m *Metrics) RecordStep(step int, d time.Duration, bytesIn, bytesOut int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg, ok := m.steps[step]
	if !ok {
		agg = &stepAgg{}
		m.steps[step] = agg
	}
	agg.totalDur += d
	agg.samples++
	agg.bytesIn += bytesIn
	agg.bytesOut += bytesOut
	m.regSteps.Inc()
	m.regBytesIn.Add(bytesIn)
	m.regBytesOut.Add(bytesOut)
	m.regStepNs.Observe(int64(d))
}

// StepStats is the aggregated view of one timestep across the communicator.
type StepStats struct {
	Step     int
	MeanDur  time.Duration // mean per-rank duration
	BytesIn  int64         // total input bytes across ranks
	BytesOut int64         // total output bytes across ranks
	Samples  int           // rank measurements received
}

// PerProcThroughput returns this step's per-process input throughput in
// bytes/second — the Fig. 9 metric.
func (s StepStats) PerProcThroughput() float64 {
	if s.MeanDur <= 0 || s.Samples == 0 {
		return 0
	}
	perProcBytes := float64(s.BytesIn) / float64(s.Samples)
	return perProcBytes / s.MeanDur.Seconds()
}

// Step returns aggregated stats for one timestep.
func (m *Metrics) Step(step int) (StepStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg, ok := m.steps[step]
	if !ok {
		return StepStats{}, false
	}
	return m.statsLocked(step, agg), true
}

func (m *Metrics) statsLocked(step int, agg *stepAgg) StepStats {
	mean := time.Duration(0)
	if agg.samples > 0 {
		mean = agg.totalDur / time.Duration(agg.samples)
	}
	return StepStats{
		Step:     step,
		MeanDur:  mean,
		BytesIn:  agg.bytesIn,
		BytesOut: agg.bytesOut,
		Samples:  agg.samples,
	}
}

// Steps returns aggregated stats for every recorded timestep, ordered by
// step number.
func (m *Metrics) Steps() []StepStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	nums := make([]int, 0, len(m.steps))
	for s := range m.steps {
		nums = append(nums, s)
	}
	sort.Ints(nums)
	out := make([]StepStats, 0, len(nums))
	for _, s := range nums {
		out = append(out, m.statsLocked(s, m.steps[s]))
	}
	return out
}

// Elapsed returns the wall-clock lifetime of the component: first rank
// start to last rank finish. Zero until both marks exist.
func (m *Metrics) Elapsed() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started.IsZero() || m.finished.IsZero() {
		return 0
	}
	return m.finished.Sub(m.started)
}

// TotalBytesIn sums input bytes over all steps and ranks.
func (m *Metrics) TotalBytesIn() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, agg := range m.steps {
		n += agg.bytesIn
	}
	return n
}

// TotalBytesOut sums output bytes over all steps and ranks.
func (m *Metrics) TotalBytesOut() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, agg := range m.steps {
		n += agg.bytesOut
	}
	return n
}
