package components

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/sb"
)

// recorder is an endpoint's per-step result log, kept on rank 0: the
// results in step order and, when path is set, their text in a file. A
// supervised restart re-delivers the steps a failed attempt had not
// released, some of which it may have recorded; those are dropped, so the
// results and the file hold every step once. The file is created (and
// truncated) by the component's first attempt and appended to by later
// ones.
type recorder[T interface{ withStep(int) T }] struct {
	mu      sync.Mutex
	results []T
	next    int      // the lowest step not yet recorded
	created bool     // an earlier attempt created the file
	out     *os.File // the running attempt's file on rank 0
	write   func(w io.Writer, v T) error
}

// run runs one attempt of an endpoint through sb.RunReduce, recording
// rank 0's results, and writing them to path with write unless path is
// empty.
func (r *recorder[T]) run(env *sb.Env, path string, write func(w io.Writer, v T) error,
	cfg sb.ReduceConfig[T], kernel sb.ReduceKernel[T]) (err error) {
	if path != "" && env.Comm.Rank() == 0 {
		r.mu.Lock()
		flag := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
		if r.created {
			flag = os.O_WRONLY | os.O_CREATE | os.O_APPEND
		}
		f, oerr := os.OpenFile(path, flag, 0o666)
		if oerr != nil {
			r.mu.Unlock()
			return fmt.Errorf("%s: %w", cfg.Name, oerr)
		}
		r.out, r.write, r.created = f, write, true
		r.mu.Unlock()
		defer func() {
			r.mu.Lock()
			r.out = nil
			r.mu.Unlock()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("%s: %w", cfg.Name, cerr)
			}
		}()
	}
	cfg.OnResult = r.record
	return sb.RunReduce(env, cfg, kernel)
}

// record keeps one step's result unless an earlier attempt already did.
func (r *recorder[T]) record(step int, v T) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if step < r.next {
		return nil
	}
	v = v.withStep(step)
	if r.out != nil {
		if err := r.write(r.out, v); err != nil {
			return err
		}
	}
	r.results = append(r.results, v)
	r.next = step + 1
	return nil
}

// all returns a copy of the recorded results, in step order.
func (r *recorder[T]) all() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, len(r.results))
	copy(out, r.results)
	return out
}
