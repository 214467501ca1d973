package sb

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// metricSample is one rank's measurement of one timestep, with a
// Generate that keeps values in ranges where summing thousands of them
// cannot overflow (testing/quick's default full-range int64s would).
type metricSample struct {
	Step     int
	Dur      time.Duration
	BytesIn  int64
	BytesOut int64
}

func (metricSample) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(metricSample{
		Step:     r.Intn(16),
		Dur:      time.Duration(r.Int63n(int64(10 * time.Second))),
		BytesIn:  r.Int63n(1 << 30),
		BytesOut: r.Int63n(1 << 30),
	})
}

func recordAll(samples []metricSample) *Metrics {
	m := NewMetrics("quick")
	for _, s := range samples {
		m.RecordStep(s.Step, s.Dur, s.BytesIn, s.BytesOut)
	}
	return m
}

// TestMetricsOrderInvariance: the aggregated view must not depend on the
// order rank measurements arrive in — neither a reordering within one
// goroutine nor an arbitrary interleaving across concurrent ranks.
func TestMetricsOrderInvariance(t *testing.T) {
	prop := func(samples []metricSample, seed int64) bool {
		want := recordAll(samples).Steps()

		shuffled := append([]metricSample(nil), samples...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := recordAll(shuffled).Steps(); !reflect.DeepEqual(got, want) {
			t.Logf("shuffled order diverged:\n got %+v\nwant %+v", got, want)
			return false
		}

		// Concurrent ranks: round-robin the samples over four goroutines
		// and let the scheduler pick the interleaving.
		m := NewMetrics("quick")
		var wg sync.WaitGroup
		for rank := 0; rank < 4; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for i := rank; i < len(samples); i += 4 {
					s := samples[i]
					m.RecordStep(s.Step, s.Dur, s.BytesIn, s.BytesOut)
				}
			}(rank)
		}
		wg.Wait()
		if got := m.Steps(); !reflect.DeepEqual(got, want) {
			t.Logf("concurrent interleaving diverged:\n got %+v\nwant %+v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMeanTotalConsistency: every aggregate the collector reports
// must be re-derivable from the raw samples — per-step mean is the
// truncated sample mean, per-step and whole-run byte totals are exact
// sums, and Steps() enumerates each recorded step once in order.
func TestMetricsMeanTotalConsistency(t *testing.T) {
	prop := func(samples []metricSample) bool {
		type agg struct {
			dur     time.Duration
			n       int
			in, out int64
		}
		byStep := map[int]*agg{}
		var totalIn, totalOut int64
		for _, s := range samples {
			a, ok := byStep[s.Step]
			if !ok {
				a = &agg{}
				byStep[s.Step] = a
			}
			a.dur += s.Dur
			a.n++
			a.in += s.BytesIn
			a.out += s.BytesOut
			totalIn += s.BytesIn
			totalOut += s.BytesOut
		}

		m := recordAll(samples)
		stats := m.Steps()
		if len(stats) != len(byStep) {
			t.Logf("Steps() has %d entries, want %d", len(stats), len(byStep))
			return false
		}
		prev := -1
		for _, st := range stats {
			if st.Step <= prev {
				t.Logf("Steps() out of order at step %d after %d", st.Step, prev)
				return false
			}
			prev = st.Step
			a, ok := byStep[st.Step]
			if !ok {
				t.Logf("Steps() invented step %d", st.Step)
				return false
			}
			wantMean := a.dur / time.Duration(a.n)
			if st.MeanDur != wantMean || st.Samples != a.n || st.BytesIn != a.in || st.BytesOut != a.out {
				t.Logf("step %d: got %+v, want mean=%s samples=%d in=%d out=%d",
					st.Step, st, wantMean, a.n, a.in, a.out)
				return false
			}
			single, ok := m.Step(st.Step)
			if !ok || !reflect.DeepEqual(single, st) {
				t.Logf("Step(%d) = %+v disagrees with Steps() entry %+v", st.Step, single, st)
				return false
			}
		}
		if m.TotalBytesIn() != totalIn || m.TotalBytesOut() != totalOut {
			t.Logf("totals in=%d out=%d, want in=%d out=%d",
				m.TotalBytesIn(), m.TotalBytesOut(), totalIn, totalOut)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
