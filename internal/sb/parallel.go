package sb

import (
	"runtime"
	"sync"
)

// Kernel parallelism. Component Transform inner loops (magnitude,
// dimension reduction, histogram binning) are embarrassingly parallel
// over array elements, so each call shards its range across goroutines
// it starts itself and joins before it returns: no goroutine outlives
// the call, and no state is shared between calls. The width is
// GOMAXPROCS; at GOMAXPROCS 1 everything degrades to the plain serial
// loop with no goroutines and no allocation.
//
// Shards are contiguous index ranges, so results are bit-identical to
// the serial loop for element-wise kernels, and reductions (histogram)
// merge per-shard partials in shard order to stay deterministic.

// minShardWork is the smallest number of elements worth handing to a
// goroutine; below roughly two shards of this, sharding overhead
// outweighs the loop.
const minShardWork = 2048

// ShardCount returns how many shards RunShards should split n elements
// into: at most GOMAXPROCS, and never so many that a shard drops below
// minShardWork elements.
func ShardCount(n int) int {
	w := runtime.GOMAXPROCS(0)
	if m := n / minShardWork; w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunShards partitions [0,n) into `shards` contiguous ranges and runs
// fn(shard, lo, hi) for each, returning when all are done. Shard 0 runs
// on the calling goroutine and the rest on goroutines of this call, so
// callers can allocate per-shard state from ShardCount and trust every
// shard index appears exactly once. A single shard runs inline.
func RunShards(n, shards int, fn func(shard, lo, hi int)) {
	if n <= 0 || shards <= 0 {
		return
	}
	if shards == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	wg.Add(shards - 1)
	for s := 1; s < shards; s++ {
		go func(s int) {
			defer wg.Done()
			fn(s, min(s*chunk, n), min((s+1)*chunk, n))
		}(s)
	}
	fn(0, 0, min(chunk, n))
	wg.Wait()
}

// ParallelFor runs fn over contiguous sub-ranges covering [0,n),
// sharded across GOMAXPROCS goroutines. For n below the sharding
// threshold (or at GOMAXPROCS 1) this is exactly fn(0, n) on the
// caller.
func ParallelFor(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := ShardCount(n)
	if w == 1 {
		fn(0, n)
		return
	}
	RunShards(n, w, func(_, lo, hi int) { fn(lo, hi) })
}
