package flexpath

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/pool"
)

// Backoff shapes the retry schedule for transient dial and attach
// failures: exponential from Base to Max over Attempts tries, with
// ±Jitter fractional randomisation so a herd of ranks reconnecting to a
// restarted broker does not dogpile in lockstep. The jitter source is
// seeded from the server address, keeping schedules reproducible.
type Backoff struct {
	Base     time.Duration // first delay (default 25ms)
	Max      time.Duration // cap on any single delay (default 400ms)
	Attempts int           // total tries including the first (default 5)
	Jitter   float64       // fraction of each delay randomised (default 0.25)
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 25 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 400 * time.Millisecond
	}
	if b.Attempts <= 0 {
		b.Attempts = 5
	}
	if b.Jitter <= 0 {
		b.Jitter = 0.25
	}
	return b
}

// delay returns the sleep before retry attempt (1-based) using rng for
// jitter.
func (b Backoff) delay(attempt int, rng *rand.Rand) time.Duration {
	d := b.Base << (attempt - 1)
	if d > b.Max || d <= 0 {
		d = b.Max
	}
	j := 1 + b.Jitter*(2*rng.Float64()-1)
	return time.Duration(float64(d) * j)
}

// Heartbeat timing defaults: a writer lease TTL is several intervals so
// one delayed beat never kills a healthy writer.
const (
	defaultHeartbeatInterval = 500 * time.Millisecond
	minLeaseTTL              = 2 * time.Second
)

// Client is the Transport over a remote Server, on either network: TCP
// (Dial) or a Unix-domain socket (DialUnix). AttachWriter/AttachReader
// yield per-rank handles with the semantics of a local Broker's, each
// backed by its own connection. Transient dial and attach failures are
// retried per Backoff; writer handles maintain a heartbeat lease so the
// broker can distinguish a crashed writer from a slow one. Against a
// shared-memory broker (NewShmServer) payloads ride the broker's
// segment instead of the socket; the client needs no setting for it.
type Client struct {
	addr    string
	network string // "tcp" (Dial) or "unix" (DialUnix); "" means tcp

	// Backoff configures dial/attach retries; zero value = defaults.
	Backoff Backoff
	// HeartbeatInterval spaces writer lease beats. Zero selects the
	// default (500ms); negative disables heartbeating entirely (the
	// broker then only learns of a lost writer when the connection
	// itself drops).
	HeartbeatInterval time.Duration

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	rng   *rand.Rand
	seg   *shmSegment // the broker's segment, mapped on first reference
}

// Dial prepares a client for the given TCP server address. No
// connection is made until a handle attaches.
func Dial(addr string) *Client {
	return dial("tcp", addr)
}

func dial(network, addr string) *Client {
	h := fnv.New64a()
	h.Write([]byte(network))
	h.Write([]byte(addr))
	return &Client{
		addr:    addr,
		network: network,
		conns:   map[net.Conn]struct{}{},
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
	}
}

// Close implements Transport: it severs all handle connections opened
// through this client and unmaps the broker's segment. Settle every
// handle first — fetched views may alias the mapping.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for conn := range c.conns {
		conn.Close()
	}
	c.conns = map[net.Conn]struct{}{}
	if c.seg != nil {
		c.seg.close()
		c.seg = nil
	}
	return nil
}

func (c *Client) jitterDelay(b Backoff, attempt int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return b.delay(attempt, c.rng)
}

// connect dials the server, retrying transient failures (connection
// refused, resets, timeouts) with capped exponential backoff.
func (c *Client) connect() (net.Conn, error) {
	b := c.Backoff.withDefaults()
	network := c.network
	if network == "" {
		network = "tcp"
	}
	var err error
	for attempt := 1; ; attempt++ {
		var conn net.Conn
		conn, err = net.Dial(network, c.addr)
		if err == nil {
			c.mu.Lock()
			c.conns[conn] = struct{}{}
			c.mu.Unlock()
			return conn, nil
		}
		if attempt >= b.Attempts || !isTransientNetErr(err) {
			break
		}
		time.Sleep(c.jitterDelay(b, attempt))
	}
	return nil, fmt.Errorf("flexpath: dialing %s: %w", c.addr, err)
}

func (c *Client) release(conn net.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
	conn.Close()
}

// ErrBrokerClosed reports that the broker went away mid-operation: the
// connection was severed (server shutdown, broker crash, network loss)
// while a request or response was in flight. Clients match it with
// errors.Is. It deliberately does not unwrap to the underlying io.EOF /
// ECONNRESET — a torn connection must never satisfy an errors.Is(err,
// io.EOF) end-of-stream check, which is reserved for the broker's
// explicit stEOF answer.
var ErrBrokerClosed = errors.New("flexpath: broker closed")

// brokerClosedError carries the transport-level cause as text only (see
// ErrBrokerClosed). Transient: the broker may be restarting, so the
// supervisor should retry the stage rather than fail the workflow.
type brokerClosedError struct{ msg string }

func (e *brokerClosedError) Error() string        { return e.msg }
func (e *brokerClosedError) Is(target error) bool { return target == ErrBrokerClosed }
func (e *brokerClosedError) Transient() bool      { return true }

// isBrokerLoss reports whether a call-level read/write error means the
// peer vanished mid-exchange: clean or torn EOFs, resets, broken pipes,
// and operations on a connection torn down by Client.Close. A frame
// checksum mismatch is deliberately excluded — that is data corruption
// on a live connection, not a shutdown, and must stay loud.
func isBrokerLoss(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, net.ErrClosed)
}

// isTransientNetErr reports whether err looks like a transport-level
// failure worth retrying, as opposed to a protocol rejection from the
// broker (size conflict, stream failed, ...), which never heals on its
// own.
func isTransientNetErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	if errors.Is(err, ErrBrokerClosed) {
		return true
	}
	// A Unix-domain socket whose path does not exist yet is the AF_UNIX
	// spelling of "connection refused": the broker has not come up.
	if errors.Is(err, syscall.ENOENT) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return false
}

// remoteCancelled reports a request whose broker-side wait was aborted
// by a cancel frame even though this handle's own context is still live
// (a cancel from a just-finished request landing a moment late). It is
// transient: nothing about the stream is wrong, the operation simply has
// to be retried.
type remoteCancelled struct{ msg string }

func (e *remoteCancelled) Error() string   { return "flexpath: request cancelled on broker: " + e.msg }
func (e *remoteCancelled) Transient() bool { return true }

// call issues one blocking request/response on conn. wmu serialises
// frame writes against heartbeat and cancel frames sharing the
// connection (nil only for attach calls, which are strictly serial).
//
// If ctx is cancellable, cancellation sends a one-way opCancel frame
// rather than severing the connection: the server aborts the in-flight
// wait and answers stCancelled, the framing stays synchronized, and the
// handle can still be detached cleanly afterwards — an uncleanly dropped
// connection would instead be treated as a crashed writer. At most one
// cancel is sent per call, and a component whose operation was cancelled
// does not issue further cancellable operations on the handle, so a
// late-landing cancel can only ever abort an operation that was itself
// already doomed.
// rbuf, when non-nil, is a handle-owned scratch the response is read
// into and the returned frameReader aliases; it is reused on the next
// call, so any response bytes that must outlive the call are copied out
// by the caller. A nil rbuf reads into fresh storage (attach path).
func call(ctx context.Context, conn net.Conn, wmu *sync.Mutex, op byte, body []byte, rbuf *[]byte) (*frameReader, error) {
	if rbuf == nil {
		rbuf = new([]byte)
	}
	return callWith(ctx, conn, wmu, func(_ byte, n int) []byte { return grow(rbuf, n) },
		func() error { return writeFrame(conn, op, body) })
}

// callVec is call with a gathered request write: the frame is the
// concatenation of parts, written via one writev (step-batched
// coalescing). vecs is the handle's reused iovec scratch.
func callVec(ctx context.Context, conn net.Conn, wmu *sync.Mutex, op byte, parts [][]byte, vecs *net.Buffers, rbuf *[]byte) (*frameReader, error) {
	return callWith(ctx, conn, wmu, func(_ byte, n int) []byte { return grow(rbuf, n) },
		func() error { return writeFrameVec(conn, vecs, op, parts...) })
}

// callWith issues one blocking request/response, with the request frame
// emitted by write (under the write lock, serialised against heartbeat
// and cancel frames) and the response body read into the slice resp
// returns (see readFrameInto).
func callWith(ctx context.Context, conn net.Conn, wmu *sync.Mutex, resp func(op byte, n int) []byte, write func() error) (*frameReader, error) {
	cancellable := ctx != nil && ctx.Done() != nil
	if cancellable {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stop := context.AfterFunc(ctx, func() {
			if wmu != nil {
				wmu.Lock()
				defer wmu.Unlock()
			}
			writeFrame(conn, opCancel, nil)
		})
		defer stop()
	}
	if wmu != nil {
		wmu.Lock()
	}
	err := write()
	if wmu != nil {
		wmu.Unlock()
	}
	if err != nil {
		return nil, wrapNetErr(ctx, err)
	}
	_, body, err := readFrameInto(conn, resp)
	if err != nil {
		return nil, wrapNetErr(ctx, err)
	}
	fr := &frameReader{buf: body}
	switch fr.u8() {
	case stOK:
		return fr, nil
	case stEOF:
		return nil, io.EOF
	case stRetired:
		return nil, fmt.Errorf("%w: %s", ErrStepRetired, fr.str())
	case stWriterLost:
		return nil, fmt.Errorf("%w: %s", ErrWriterLost, fr.str())
	case stQuota:
		// Reconstruct the typed error so errors.Is(ErrQuotaExceeded) and
		// the Transient() retryability survive the wire on every backend.
		return nil, &QuotaError{Msg: fr.str()}
	case stEvicted:
		return nil, &tenantEvictedError{msg: fr.str()}
	case stCancelled:
		if cancellable && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &remoteCancelled{msg: fr.str()}
	default:
		return nil, errors.New(fr.str())
	}
}

func wrapNetErr(ctx context.Context, err error) error {
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if isBrokerLoss(err) {
		return &brokerClosedError{msg: fmt.Sprintf("%v: %v", ErrBrokerClosed, err)}
	}
	return err
}

// attach performs connect + attach-RPC, retrying the whole sequence on
// transport-level failures (a broker restarting mid-attach).
func (c *Client) attach(op byte, body []byte) (net.Conn, *frameReader, error) {
	b := c.Backoff.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		var conn net.Conn
		conn, err = c.connect()
		if err != nil {
			return nil, nil, err
		}
		var fr *frameReader
		fr, err = call(nil, conn, nil, op, body, nil)
		if err == nil {
			return conn, fr, nil
		}
		c.release(conn)
		if attempt >= b.Attempts || !isTransientNetErr(err) {
			return nil, nil, err
		}
		time.Sleep(c.jitterDelay(b, attempt))
	}
}

// RemoteWriter is a writer rank handle over a socket; it implements the
// same contract as *Writer (WriterHandle).
type RemoteWriter struct {
	c    *Client
	conn net.Conn
	next int
	ring shmRing     // this rank's slots; the zero ring publishes inline
	seg  *shmSegment // the mapping ring indexes, when it is non-zero

	wmu sync.Mutex // serialises frame writes (requests vs heartbeats)

	mu     sync.Mutex
	closed bool
	hbStop chan struct{}
	fbuf   []byte      // publish frame scratch, guarded by mu
	rbuf   []byte      // response read scratch, guarded by mu
	parts  [][]byte    // gathered publish part list, guarded by mu
	vecs   net.Buffers // gathered publish iovec scratch, guarded by mu
}

// AttachWriter implements Transport: it joins the writer group of a
// stream on the remote broker, taking the ring of segment slots the
// broker's attach answer carries.
func (c *Client) AttachWriter(stream string, rank, size, depth int) (WriterHandle, error) {
	f := &frameWriter{}
	f.str(stream)
	f.u32(uint32(rank))
	f.u32(uint32(size))
	f.u32(uint32(depth))
	conn, fr, err := c.attach(opAttachWriter, f.buf)
	if err != nil {
		return nil, err
	}
	w := &RemoteWriter{c: c, conn: conn, next: int(fr.u32()), ring: shmRing{base: int(fr.u32()), n: int(fr.u32())}}
	err = fr.err
	if err == nil && w.ring.n > 0 {
		w.seg, err = c.segment()
		if err == nil && w.ring.base+w.ring.n > w.seg.slotCount {
			err = fmt.Errorf("flexpath: shm ring [%d,%d) outside the %d-slot segment", w.ring.base, w.ring.base+w.ring.n, w.seg.slotCount)
		}
	}
	if err != nil {
		w.Detach()
		return nil, err
	}
	interval := c.HeartbeatInterval
	if interval == 0 {
		interval = defaultHeartbeatInterval
	}
	if interval > 0 {
		ttl := 4 * interval
		if ttl < minLeaseTTL {
			ttl = minLeaseTTL
		}
		w.hbStop = make(chan struct{})
		go w.heartbeat(interval, ttl)
	}
	return w, nil
}

// heartbeat sends one-way lease beats until stopped or the connection
// dies. Beats only contend for the write lock, so they keep flowing
// while a PublishBlock is parked waiting for queue space server-side.
func (w *RemoteWriter) heartbeat(interval, ttl time.Duration) {
	f := &frameWriter{}
	f.u32(uint32(ttl / time.Millisecond))
	body := f.buf
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		w.wmu.Lock()
		err := writeFrame(w.conn, opHeartbeat, body)
		w.wmu.Unlock()
		if err != nil {
			return
		}
		select {
		case <-w.hbStop:
			return
		case <-t.C:
		}
	}
}

// NextStep returns the step this rank should publish next — 0 on a fresh
// stream, or the resume point after a supervised re-attach.
func (w *RemoteWriter) NextStep() int { return w.next }

// PublishBlock queues this rank's block for the given step, blocking
// while the remote queue window is full. A payload that fits a slot of
// this rank's ring is copied once into the slot and published by
// reference; any other leaves the process from its own storage. Either
// way the request is one gathered write whose staged prefix lives in
// handle-owned scratch, so a steady publish loop allocates nothing on
// this side of the wire.
func (w *RemoteWriter) PublishBlock(ctx context.Context, step int, meta, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	f := &frameWriter{buf: w.fbuf[:0]}
	f.u32(uint32(step))
	f.u32(uint32(len(meta)))
	if w.ring.n > 0 && len(payload) > 0 && len(payload) <= w.seg.slotBytes {
		ref, err := w.claim(ctx, step, payload)
		if err != nil {
			return err
		}
		f.slotRef(ref)
		payload = nil
	} else {
		f.inlineHead(len(payload))
	}
	w.fbuf = f.buf
	parts := append(w.parts[:0], f.buf[:8], meta, f.buf[8:], payload)
	w.parts = parts[:0]
	// From here a slot claim belongs to the broker (see
	// shmServerState.adopt): no rollback on error, so a
	// cancelled-and-retried publish simply claims the slot afresh.
	_, err := callVec(ctx, w.conn, &w.wmu, opPublish, parts, &w.vecs, &w.rbuf)
	if err == nil && step >= w.next {
		w.next = step + 1
	}
	return err
}

// PublishBlockRef is the pooled-buffer publish path of the
// WriterHandle contract: the bytes are written to the socket or the
// slot and the references released — the pooled storage never leaves
// this process, so consuming the refs immediately returns it to the
// pool for the producer's next step.
func (w *RemoteWriter) PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error {
	err := w.PublishBlock(ctx, step, meta.Bytes(), payload.Bytes())
	meta.Release()
	payload.Release()
	return err
}

// settle marks the handle closed (idempotently), stops the heartbeat,
// and runs the closing RPC exactly once.
func (w *RemoteWriter) settle(op byte, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.hbStop != nil {
		close(w.hbStop)
	}
	_, err := call(nil, w.conn, &w.wmu, op, body, &w.rbuf)
	w.c.release(w.conn)
	return err
}

// Close retires this writer rank and drops its connection. Close is
// idempotent: repeated calls return nil.
func (w *RemoteWriter) Close() error { return w.settle(opCloseWriter, nil) }

// Detach releases this rank's slot without ending or failing the stream,
// so a supervisor can re-attach and resume at NextStep.
func (w *RemoteWriter) Detach() error { return w.settle(opDetachWriter, nil) }

// Crash reports this writer as lost: the broker marks its stream failed
// and blocked readers receive ErrWriterLost.
func (w *RemoteWriter) Crash(cause error) error {
	f := &frameWriter{}
	msg := "crashed"
	if cause != nil {
		msg = cause.Error()
	}
	f.str(msg)
	return w.settle(opCrashWriter, f.buf)
}

// RemoteReader is a reader rank handle over a socket; it implements the
// same contract as *Reader (ReaderHandle).
type RemoteReader struct {
	c    *Client
	conn net.Conn
	next int

	wmu sync.Mutex // serialises frame writes (requests vs cancel frames)

	mu     sync.Mutex
	closed bool
	fbuf   []byte        // request frame scratch, guarded by mu
	rbuf   []byte        // response read scratch, guarded by mu
	frames []fetchedStep // fetched payloads not yet released, guarded by mu
}

// fetchedStep is one FetchBlock answer, held until its step is released
// because the returned payload aliases it: a pooled response frame, or
// the control word of the shm slot the payload sits in.
type fetchedStep struct {
	step  int
	frame *pool.Buf
	ctrl  *uint64
}

// fetchLead places a fetch response in its pooled buffer so that the
// payload, which follows a u8 status, a u8 payload marker and a u32
// length, starts at byte 8: 8-byte aligned, as the zero-copy payload
// decode needs.
const fetchLead = 8 - 6

// AttachReader implements Transport: it joins the reader group of a
// stream on the remote broker.
func (c *Client) AttachReader(stream string, rank, size int) (ReaderHandle, error) {
	f := &frameWriter{}
	f.str(stream)
	f.u32(uint32(rank))
	f.u32(uint32(size))
	conn, fr, err := c.attach(opAttachReader, f.buf)
	if err != nil {
		return nil, err
	}
	return &RemoteReader{c: c, conn: conn, next: int(fr.u32())}, nil
}

// OpenReaderFrom implements ReplayTransport: it opens a catch-up replay
// session on the remote broker, positioned at step from (see
// Broker.OpenReaderFrom). The returned handle speaks the ordinary
// reader op set, so it is a *RemoteReader in every respect except that
// the broker sources historical steps from its durable log and the
// session never gates retirement.
func (c *Client) OpenReaderFrom(stream string, from int) (ReaderHandle, error) {
	if from < 0 {
		return nil, fmt.Errorf("flexpath: replay from negative step %d", from)
	}
	f := &frameWriter{}
	f.str(stream)
	f.u32(uint32(from))
	conn, fr, err := c.attach(opAttachReplay, f.buf)
	if err != nil {
		return nil, err
	}
	return &RemoteReader{c: c, conn: conn, next: int(fr.u32())}, nil
}

// NextStep returns the earliest step any rank of the reader group has
// not yet released — the group-wide resume point after a re-attach.
func (r *RemoteReader) NextStep() int { return r.next }

// WriterSize blocks until the stream's writer group exists and returns
// its size.
func (r *RemoteReader) WriterSize(ctx context.Context) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrClosed
	}
	fr, err := call(ctx, r.conn, &r.wmu, opWriterSize, nil, &r.rbuf)
	if err != nil {
		return 0, err
	}
	return int(fr.u32()), nil
}

// StepMeta blocks until the step is complete and returns every writer
// rank's metadata blob; io.EOF after the stream ends.
func (r *RemoteReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	f := &frameWriter{buf: r.fbuf[:0]}
	f.u32(uint32(step))
	r.fbuf = f.buf
	fr, err := call(ctx, r.conn, &r.wmu, opStepMeta, f.buf, &r.rbuf)
	if err != nil {
		return nil, err
	}
	n := int(fr.u32())
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, append([]byte(nil), fr.bytes()...))
	}
	if fr.err != nil {
		return nil, fr.err
	}
	return out, nil
}

// FetchBlock returns one writer rank's payload for the step. An inline
// answer is read straight into a pooled frame with the payload 8-byte
// aligned; a slot answer resolves to a view of the broker's segment.
// Either way the returned slice is valid until this rank releases the
// step (or closes or detaches).
func (r *RemoteReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	f := &frameWriter{buf: r.fbuf[:0]}
	f.u32(uint32(step))
	f.u32(uint32(writerRank))
	r.fbuf = f.buf
	var frame *pool.Buf
	fr, err := callWith(ctx, r.conn, &r.wmu, func(_ byte, n int) []byte {
		frame = pool.Get(fetchLead + n)
		return frame.Bytes()[fetchLead:]
	}, func() error { return writeFrame(r.conn, opFetchBlock, f.buf) })
	if err != nil {
		frame.Release()
		return nil, err
	}
	inline, ref, bySlot := fr.payload()
	if fr.err != nil {
		frame.Release()
		return nil, fr.err
	}
	if bySlot {
		frame.Release()
		return r.view(step, ref)
	}
	r.frames = append(r.frames, fetchedStep{step: step, frame: frame})
	return inline, nil
}

// releaseFrames lets go of the payloads fetched for one step (all steps
// when step is negative): frames return to the pool, and each viewed
// slot gets its "touch", an atomic RMW on its control word. The touch is
// the release half of the reader→writer happens-before edge (see
// shm.go), so it must run after the caller's last read of the view and
// before the release or settle RPC lets the broker free the slot. The
// caller holds r.mu.
func (r *RemoteReader) releaseFrames(step int) {
	kept := r.frames[:0]
	for _, h := range r.frames {
		if step < 0 || h.step == step {
			h.frame.Release()
			if h.ctrl != nil {
				atomic.AddUint64(h.ctrl, 0)
			}
		} else {
			kept = append(kept, h)
		}
	}
	clear(r.frames[len(kept):])
	r.frames = kept
}

// ReleaseStep declares this rank finished with the step.
func (r *RemoteReader) ReleaseStep(step int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.releaseFrames(step)
	f := &frameWriter{buf: r.fbuf[:0]}
	f.u32(uint32(step))
	r.fbuf = f.buf
	_, err := call(nil, r.conn, &r.wmu, opReleaseStep, f.buf, &r.rbuf)
	if err == nil && step >= r.next {
		r.next = step + 1
	}
	return err
}

func (r *RemoteReader) settle(op byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.releaseFrames(-1)
	_, err := call(nil, r.conn, &r.wmu, op, nil, &r.rbuf)
	r.c.release(r.conn)
	return err
}

// Close retires this reader rank and drops its connection. Close is
// idempotent: repeated calls return nil.
func (r *RemoteReader) Close() error { return r.settle(opCloseReader) }

// Detach releases this rank's slot while still gating step retirement,
// so a supervised restart can re-attach and resume without losing steps.
func (r *RemoteReader) Detach() error { return r.settle(opDetachReader) }
