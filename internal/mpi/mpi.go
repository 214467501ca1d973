// Package mpi is an in-process message-passing runtime that stands in for
// MPI in this reproduction. Each SmartBlock component in the paper is an
// MPI executable whose processes "belong to the same MPI communicator
// once the component is launched" (§IV); here each rank is a goroutine
// and a communicator is a set of shared mailboxes.
//
// The subset implemented is the subset in situ components need: SPMD
// launch (Run), rank/size discovery, tagged point-to-point Send/Recv,
// the synchronizing collectives (Barrier, Bcast, Gather, Allgather,
// Reduce, Allreduce), and communicator Split.
//
// Semantics follow MPI where it matters to callers:
//
//   - Sends are eager and buffered: Send never blocks and messages from
//     one sender to one receiver with one tag arrive in order.
//   - Recv blocks until a matching (source, tag) message arrives, or the
//     world's context is cancelled (rank failure / shutdown), in which
//     case it returns an error rather than deadlocking.
//   - Collectives must be called by every rank of the communicator in the
//     same order; each call is internally sequence-numbered so back-to-back
//     collectives cannot cross-talk.
//
// When any rank's function returns a non-nil error the world context is
// cancelled, unblocking every other rank that is stuck in Recv — the
// moral equivalent of MPI_Abort, and the hook the failure-injection tests
// use.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// AnyTag matches messages with any tag in Recv.
const AnyTag = -1 << 30

// message is one point-to-point payload in flight.
type message struct {
	src, tag int
	payload  any
}

// mailbox is a rank's unordered-match message store: Recv scans for the
// first message matching (src, tag) in arrival order.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.cond.Broadcast()
	m.mu.Unlock()
}

// take removes and returns the first message matching src/tag. done
// reports whether the world has been cancelled; it is re-checked on every
// wakeup so cancellation cannot be lost.
func (m *mailbox) take(src, tag int, done <-chan struct{}) (message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.queue {
			if (src == AnySource || msg.src == src) && (tag == AnyTag || msg.tag == tag) {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg, nil
			}
		}
		select {
		case <-done:
			return message{}, ErrAborted
		default:
		}
		m.cond.Wait()
	}
}

// ErrAborted is returned by blocked operations when the world shuts down
// because some rank failed or the context was cancelled.
var ErrAborted = errors.New("mpi: world aborted")

// world is the shared state behind all communicators spawned by one Run.
type world struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	groups   map[string]*group // split registry, keyed by parent/seq/color
	allBoxes []*mailbox        // every mailbox ever created, for cancel wakeups
}

func (w *world) abort() {
	w.cancel()
	w.mu.Lock()
	boxes := append([]*mailbox(nil), w.allBoxes...)
	w.mu.Unlock()
	for _, b := range boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

func (w *world) registerBoxes(boxes []*mailbox) {
	w.mu.Lock()
	w.allBoxes = append(w.allBoxes, boxes...)
	w.mu.Unlock()
}

// group is one communicator's shared state: its mailboxes and identity.
type group struct {
	id    string
	w     *world
	boxes []*mailbox
}

func newGroup(w *world, id string, size int) *group {
	g := &group{id: id, w: w, boxes: make([]*mailbox, size)}
	for i := range g.boxes {
		g.boxes[i] = newMailbox()
	}
	w.registerBoxes(g.boxes)
	return g
}

// Comm is one rank's handle on a communicator. A Comm value is owned by a
// single rank goroutine and must not be shared between goroutines.
type Comm struct {
	g        *group
	rank     int
	collSeq  int // per-rank collective sequence number
	splitSeq int // per-rank split sequence number
}

// Rank returns this process's rank within the communicator, in [0,Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.g.boxes) }

// Context returns the world context; it is cancelled when any rank fails.
func (c *Comm) Context() context.Context { return c.g.w.ctx }

// RankError tags an error with the rank that produced it.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }
func (e *RankError) Unwrap() error { return e.Err }

// Run launches size ranks, each running fn with its own Comm, and waits
// for all of them. If any rank returns an error the world is aborted
// (unblocking collective and Recv calls on other ranks) and Run returns
// the first error observed, wrapped with its rank.
func Run(size int, fn func(*Comm) error) error {
	return RunCtx(context.Background(), size, fn)
}

// RunCtx is Run with an external context; cancelling it aborts the world.
func RunCtx(ctx context.Context, size int, fn func(*Comm) error) error {
	if size <= 0 {
		return fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	wctx, cancel := context.WithCancel(ctx)
	w := &world{ctx: wctx, cancel: cancel, groups: make(map[string]*group)}
	defer cancel()
	// Cancelling the caller's context aborts the world. Stopped before the
	// deferred cancel, so a world that ends normally runs no abort.
	stop := context.AfterFunc(wctx, w.abort)
	defer stop()
	g := newGroup(w, "world", size)

	errs := make([]error, size)
	runRank := func(rank int) {
		defer func() {
			if p := recover(); p != nil {
				errs[rank] = &RankError{Rank: rank, Err: fmt.Errorf("panic: %v", p)}
				w.abort()
			}
		}()
		if err := fn(&Comm{g: g, rank: rank}); err != nil {
			errs[rank] = &RankError{Rank: rank, Err: err}
			w.abort()
		}
	}
	// The last rank runs on the calling goroutine, which would otherwise
	// only wait.
	var wg sync.WaitGroup
	wg.Add(size - 1)
	for r := 0; r < size-1; r++ {
		go func(rank int) {
			defer wg.Done()
			runRank(rank)
		}(r)
	}
	runRank(size - 1)
	wg.Wait()
	// Prefer the root cause over abort fallout: when rank N fails, the
	// other ranks unwind with ErrAborted/Canceled, and rank order must not
	// let that fallout mask the error that actually started the abort —
	// callers (the workflow supervisor) classify the returned error to
	// decide whether a restart can help.
	var fallout error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) || errors.Is(err, context.Canceled) {
			if fallout == nil {
				fallout = err
			}
			continue
		}
		return err
	}
	return fallout
}

// Send delivers payload to rank dst with the given tag. It never blocks
// (eager buffered delivery). Tags must be non-negative; negative tags are
// reserved for collectives.
func (c *Comm) Send(dst, tag int, payload any) error {
	if tag < 0 {
		return fmt.Errorf("mpi: user tags must be non-negative, got %d", tag)
	}
	return c.send(dst, tag, payload)
}

func (c *Comm) send(dst, tag int, payload any) error {
	if dst < 0 || dst >= c.Size() {
		return fmt.Errorf("mpi: send to rank %d outside communicator of size %d", dst, c.Size())
	}
	select {
	case <-c.g.w.ctx.Done():
		return ErrAborted
	default:
	}
	c.g.boxes[dst].put(message{src: c.rank, tag: tag, payload: payload})
	return nil
}

// Recv blocks until a message matching src (or AnySource) and tag (or
// AnyTag) arrives, returning its payload and actual source rank.
func (c *Comm) Recv(src, tag int) (payload any, from int, err error) {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		return nil, 0, fmt.Errorf("mpi: recv from rank %d outside communicator of size %d", src, c.Size())
	}
	msg, err := c.g.boxes[c.rank].take(src, tag, c.g.w.ctx.Done())
	if err != nil {
		return nil, 0, err
	}
	return msg.payload, msg.src, nil
}

// SendT and RecvT provide typed point-to-point transfer.

// SendT sends a value of type T to dst with the given tag.
func SendT[T any](c *Comm, dst, tag int, v T) error { return c.Send(dst, tag, v) }

// RecvT receives a value of type T; it errors if the matched message
// holds a different type, which indicates mismatched send/recv code.
func RecvT[T any](c *Comm, src, tag int) (T, int, error) {
	var zero T
	payload, from, err := c.Recv(src, tag)
	if err != nil {
		return zero, 0, err
	}
	v, ok := payload.(T)
	if !ok {
		return zero, from, fmt.Errorf("mpi: recv type mismatch: message from rank %d holds %T, want %T", from, payload, zero)
	}
	return v, from, nil
}
