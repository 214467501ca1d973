package sb

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs the body with GOMAXPROCS, and so the kernel shard
// width, at n, restoring the previous value afterward.
func withWorkers(t *testing.T, n int, body func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	body()
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			const n = 10_000
			hits := make([]int32, n)
			ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
				}
			}
		})
	}
}

func TestParallelForSmallInputStaysSerial(t *testing.T) {
	withWorkers(t, 8, func() {
		calls := 0
		ParallelFor(100, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 100 {
				t.Fatalf("expected single shard [0,100), got [%d,%d)", lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("expected 1 inline call, got %d", calls)
		}
		ParallelFor(0, func(lo, hi int) { t.Fatal("fn called for n=0") })
	})
}

func TestRunShardsHonoursShardCount(t *testing.T) {
	for _, workers := range []int{1, 3} {
		withWorkers(t, workers, func() {
			const n = 50_000
			shards := ShardCount(n)
			if workers == 1 && shards != 1 {
				t.Fatalf("serial pool produced %d shards", shards)
			}
			seen := make([]int32, shards)
			var covered atomic.Int64
			RunShards(n, shards, func(s, lo, hi int) {
				atomic.AddInt32(&seen[s], 1)
				covered.Add(int64(hi - lo))
			})
			for s, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d: shard %d ran %d times", workers, s, c)
				}
			}
			if covered.Load() != n {
				t.Fatalf("workers=%d: covered %d of %d elements", workers, covered.Load(), n)
			}
		})
	}
}

func TestConcurrentKernelsShareThePool(t *testing.T) {
	withWorkers(t, 4, func() {
		const n = 20_000
		var wg sync.WaitGroup
		var total atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ParallelFor(n, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}()
		}
		wg.Wait()
		if total.Load() != 8*n {
			t.Fatalf("covered %d, want %d", total.Load(), 8*n)
		}
	})
}

// A sharded kernel's goroutines end with its call: once RunShards and
// ParallelFor return, the goroutine count is back where it was.
func TestShardedKernelsLeaveNoGoroutines(t *testing.T) {
	withWorkers(t, 4, func() {
		before := runtime.NumGoroutine()
		const n = 50_000
		shards := ShardCount(n)
		if shards < 2 {
			t.Fatalf("%d elements at width 4 gave %d shards", n, shards)
		}
		RunShards(n, shards, func(_, _, _ int) {})
		ParallelFor(n, func(_, _ int) {})
		// A goroutine that has called wg.Done may not have exited yet.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() != before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("%d goroutines after the kernels, %d before", got, before)
		}
	})
}
