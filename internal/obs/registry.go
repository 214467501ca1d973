package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the observability layer: a registry
// of named atomic counters, gauges, and histograms, exposed as an
// expvar-style snapshot and an HTTP handler (sbbroker -metrics-addr).
// Producers resolve their instruments ONCE — at attach, bind, or init
// time — and then pay a single atomic op per update, so instrumented
// hot paths carry no map lookups and no allocations.

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n. Nil-safe.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (use a negative n on the way out of a
// region to track occupancy). Nil-safe.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value; 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates a distribution of non-negative int64 samples in
// power-of-two buckets (bucket i counts samples whose bit length is i,
// i.e. values in [2^(i-1), 2^i)). Everything is atomic: Observe is a
// handful of lock-free ops, cheap enough for per-step latencies.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // stored as math.MaxInt64 until the first sample
	max     atomic.Int64
	buckets [65]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one sample; negative samples clamp to 0. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// HistogramSnapshot is the exported view of a Histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	Mean  int64 `json:"mean"`
}

// Snapshot returns the current aggregate view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{}
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Mean = s.Sum / s.Count
	}
	return s
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) from
// the power-of-two buckets — coarse, but alloc-free and good enough to
// spot a latency cliff.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.max.Load()
}

// Registry is a namespace of instruments. Lookups get-or-create under a
// mutex; all instruments live for the registry's lifetime. A nil
// *Registry is a valid "disabled" registry: lookups return nil
// instruments, whose methods are no-ops.
type Registry struct {
	mu    sync.Mutex
	cs    map[string]*Counter
	gs    map[string]*Gauge
	hs    map[string]*Histogram
	funcs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		cs:    map[string]*Counter{},
		gs:    map[string]*Gauge{},
		hs:    map[string]*Histogram{},
		funcs: map[string]func() int64{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Process-scoped producers
// (the buffer pool) publish here; sbrun and sbbroker snapshot it.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cs[name]
	if !ok {
		c = &Counter{}
		r.cs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gs[name]
	if !ok {
		g = &Gauge{}
		r.gs[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hs[name]
	if !ok {
		h = newHistogram()
		r.hs[name] = h
	}
	return h
}

// RegisterFunc publishes a computed value under name — the expvar.Func
// pattern, used to bridge pre-existing atomic counters (pool stats)
// into the registry without double bookkeeping. Nil-safe.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot returns every scalar instrument's current value keyed by
// name. Histograms expand to name.count/.sum/.min/.max/.mean/.p99.
// Nil-safe: returns an empty map.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	cs := make(map[string]*Counter, len(r.cs))
	for k, v := range r.cs {
		cs[k] = v
	}
	gs := make(map[string]*Gauge, len(r.gs))
	for k, v := range r.gs {
		gs[k] = v
	}
	hs := make(map[string]*Histogram, len(r.hs))
	for k, v := range r.hs {
		hs[k] = v
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()
	for k, c := range cs {
		out[k] = c.Value()
	}
	for k, g := range gs {
		out[k] = g.Value()
	}
	for k, h := range hs {
		s := h.Snapshot()
		out[k+".count"] = s.Count
		out[k+".sum"] = s.Sum
		out[k+".min"] = s.Min
		out[k+".max"] = s.Max
		out[k+".mean"] = s.Mean
		out[k+".p99"] = h.Quantile(0.99)
	}
	for k, fn := range funcs {
		out[k] = fn()
	}
	return out
}

// Handler returns an HTTP handler serving the snapshot as a JSON object
// with deterministically ordered keys — the sbbroker -metrics-addr
// debug endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := r.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{\n"))
		for i, k := range keys {
			kb, _ := json.Marshal(k)
			vb, _ := json.Marshal(snap[k])
			w.Write(kb)
			w.Write([]byte(": "))
			w.Write(vb)
			if i < len(keys)-1 {
				w.Write([]byte(","))
			}
			w.Write([]byte("\n"))
		}
		w.Write([]byte("}\n"))
	})
}
