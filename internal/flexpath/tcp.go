package flexpath

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
)

// This file adds the socket incarnation of the transport: a Server
// fronts a Broker on a socket (TCP here, a Unix socket in uds.go, with
// a shared-memory payload segment in shm.go), and one Client
// (tcpclient.go) provides the same per-rank Attach/Publish/Fetch API
// from another process over any of them. The paper's FlexPath rides on
// EVPath over RDMA or sockets; here the wire is a simple length-prefixed
// binary protocol. Components are oblivious to which incarnation they
// run over — they only see WriterHandle/ReaderHandle.
//
// Framing: every message is u32 length, u32 CRC-32 (IEEE) of the rest,
// u8 opcode, body. The checksum turns silent wire corruption into a
// detected framing error instead of a garbage decode. Strings and byte
// slices are u32 length + bytes. Each rank handle owns one connection
// and issues strictly blocking request/response pairs, which matches the
// transport's rendezvous semantics: a blocked PublishBlock or StepMeta
// simply leaves the response pending.
//
// Writer liveness: writer handles hold a lease on the broker. The client
// sends one-way opHeartbeat frames (interleaved with requests under a
// write lock) carrying a TTL; once the server has seen the first beat it
// enforces a read deadline of that TTL, so a writer whose process stops
// beating — or whose connection drops without a clean opCloseWriter /
// opDetachWriter — is Crashed rather than Closed, marking its streams
// failed (ErrWriterLost) instead of silently truncating them.

// Protocol opcodes (requests).
const (
	opAttachWriter = iota + 1
	opAttachReader
	opPublish
	opCloseWriter
	opStepMeta
	opFetchBlock
	opReleaseStep
	opCloseReader
	opWriterSize
	opDetachWriter
	opDetachReader
	opCrashWriter
	opHeartbeat    // one-way: no response is sent
	opCancel       // one-way: aborts the in-flight blocking request
	opAttachReplay // catch-up reader over the broker's durable log
	opShmWaitSlot  // block until a ring slot of the shm segment returns to free
)

// Payload markers: the u8 in a publish request (after the meta) and in
// a fetch answer (after the status) saying how the payload travels.
const (
	payloadInline = iota // u32 length + the bytes, in the frame
	payloadSlot          // u32 slot, u32 generation, u32 length: the bytes sit in the shm segment
)

// Response status codes.
const (
	stOK = iota
	stErr
	stEOF
	stRetired
	stWriterLost
	stCancelled
	stQuota   // tenant quota rejection: clean, retryable (ErrQuotaExceeded)
	stEvicted // tenant namespace sealed by eviction: terminal (ErrTenantEvicted)
)

// maxFrame bounds a single message; a corrupt length prefix must not
// provoke a giant allocation.
const maxFrame = 1 << 30

func writeFrame(w io.Writer, op byte, body []byte) error {
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	crc := crc32.ChecksumIEEE([]byte{op})
	crc = crc32.Update(crc, crc32.IEEETable, body)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = op
	if len(body) == 0 {
		_, err := w.Write(hdr[:])
		return err
	}
	// One gathered write (writev on a TCP conn): header and body hit the
	// wire together without first being merged into a fresh buffer.
	bufs := net.Buffers{hdr[:], body}
	_, err := bufs.WriteTo(w)
	return err
}

// writeFrameVec writes one frame whose body is the concatenation of
// parts, without first merging them: the header and every part hit the
// wire together in a single gathered write (one writev per frame). This
// is the path of every publish request and block-fetch answer — a full
// timestep's payload crosses the kernel boundary in one syscall with
// zero payload copies; only the few header bytes are staged in caller
// scratch. vecs is a caller-owned iovec scratch reused across frames
// (net.Buffers consumes the slice it writes, so the backing array is
// recycled here, not the contents).
func writeFrameVec(w io.Writer, vecs *net.Buffers, op byte, parts ...[]byte) error {
	var hdr [9]byte
	n := 1
	crc := crc32.ChecksumIEEE([]byte{op})
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = op
	bufs := append((*vecs)[:0], hdr[:])
	for _, p := range parts {
		if len(p) > 0 {
			bufs = append(bufs, p)
		}
	}
	*vecs = bufs[:0]
	_, err := bufs.WriteTo(w)
	return err
}

// grow returns (*scratch)[:n], reallocating only when the capacity is
// insufficient — the frame-buffer reuse primitive.
func grow(scratch *[]byte, n int) []byte {
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	*scratch = (*scratch)[:n]
	return *scratch
}

// readFrameInto reads one frame, placing the n-byte body in the slice
// pick(op, n) returns — normally a scratch buffer grown as needed and
// reused across calls (see grow), so a steady stream of frames stops
// allocating once the buffers reach steady-state size. The returned body
// is that slice.
//
// The opcode is read ahead of the rest of the body precisely so pick can
// route control frames (heartbeat, cancel) to a different buffer than
// request frames: control frames arrive while a request body is still
// being processed, and must not clobber it.
func readFrameInto(r io.Reader, pick func(op byte, n int) []byte) (op byte, body []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("flexpath: invalid frame length %d", n)
	}
	var opb [1]byte
	if _, err := io.ReadFull(r, opb[:]); err != nil {
		return 0, nil, err
	}
	op = opb[0]
	body = pick(op, int(n)-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	crc := crc32.ChecksumIEEE(opb[:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crc != want {
		return 0, nil, fmt.Errorf("flexpath: frame checksum mismatch (got %08x, want %08x): corrupted frame", crc, want)
	}
	return op, body, nil
}

// readFrame reads one frame into fresh storage (attach paths and tests;
// the hot paths use readFrameInto with a reused scratch).
func readFrame(r io.Reader) (op byte, body []byte, err error) {
	return readFrameInto(r, func(_ byte, n int) []byte { return make([]byte, n) })
}

// frameWriter appends protocol primitives to a buffer.
type frameWriter struct{ buf []byte }

func (f *frameWriter) u32(v uint32) { f.buf = binary.LittleEndian.AppendUint32(f.buf, v) }
func (f *frameWriter) u8(v uint8)   { f.buf = append(f.buf, v) }
func (f *frameWriter) bytes(b []byte) {
	f.u32(uint32(len(b)))
	f.buf = append(f.buf, b...)
}
func (f *frameWriter) str(s string) { f.bytes([]byte(s)) }

// inlineHead writes the marker and length of an n-byte inline payload;
// the caller gathers the bytes behind it (see writeFrameVec).
func (f *frameWriter) inlineHead(n int) {
	f.u8(payloadInline)
	f.u32(uint32(n))
}

// slotRef writes the marker and reference of a payload in a shm slot.
func (f *frameWriter) slotRef(ref slotRef) {
	f.u8(payloadSlot)
	f.u32(uint32(ref.slot))
	f.u32(ref.gen)
	f.u32(uint32(ref.n))
}

// frameReader consumes protocol primitives from a buffer.
type frameReader struct {
	buf []byte
	pos int
	err error
}

func (f *frameReader) fail(msg string) {
	if f.err == nil {
		f.err = errors.New("flexpath: protocol: " + msg)
	}
}

func (f *frameReader) u32() uint32 {
	if f.err != nil || f.pos+4 > len(f.buf) {
		f.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(f.buf[f.pos:])
	f.pos += 4
	return v
}

func (f *frameReader) u8() uint8 {
	if f.err != nil || f.pos+1 > len(f.buf) {
		f.fail("truncated u8")
		return 0
	}
	v := f.buf[f.pos]
	f.pos++
	return v
}

func (f *frameReader) bytes() []byte {
	n := int(f.u32())
	if f.err != nil || f.pos+n > len(f.buf) {
		f.fail("truncated bytes")
		return nil
	}
	b := f.buf[f.pos : f.pos+n]
	f.pos += n
	return b
}

func (f *frameReader) str() string { return string(f.bytes()) }

// payload reads what inlineHead or slotRef wrote: the inline bytes, or
// (bySlot) the slot reference.
func (f *frameReader) payload() (inline []byte, ref slotRef, bySlot bool) {
	switch f.u8() {
	case payloadInline:
		return f.bytes(), ref, false
	case payloadSlot:
		ref.slot = int(f.u32())
		ref.gen = f.u32()
		ref.n = int(f.u32())
		return nil, ref, true
	default:
		f.fail("unknown payload marker")
		return nil, ref, false
	}
}

// Server exposes a Broker on a socket: TCP (NewServer), a Unix socket
// (NewUnixServer), or a Unix socket plus a shared-memory payload
// segment (NewShmServer); Client dials all three. Every accepted
// connection serves one rank handle (writer or reader) for its
// lifetime; dropping the connection closes a reader handle (the rank
// departed) but Crashes a writer handle (the stream fails with
// ErrWriterLost) unless the peer first sent a clean close or detach.
type Server struct {
	broker *Broker
	ln     net.Listener

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	done    chan struct{}
	cleanup func() // backend teardown (UDS lock release); run once by Shutdown

	// shm is the shared-memory data plane (segment + ring allocator),
	// non-nil only for NewShmServer. Without it writers get no ring,
	// slot publishes and opShmWaitSlot are refused, and every fetch is
	// answered inline.
	shm *shmServerState

	// dying is set just before Shutdown severs the remaining connections.
	// A read error on a connection after that reflects the server's own
	// teardown, not peer death, so the loss-inference defers (crash a
	// dropped writer, close a dropped reader) must not run: they would
	// mutate — and, with a durable log attached, journal — broker state on
	// behalf of peers that are still alive and mid-way through
	// re-attaching to a successor broker. Worse, the mutations race the
	// severing loop itself: a writer conn torn down first would fail its
	// stream, and a reader conn not yet torn down could be handed that
	// manufactured ErrWriterLost as a terminal, non-retryable answer.
	dying atomic.Bool
}

// NewServer creates a server around broker, listening on addr
// (host:port; port 0 picks a free port).
func NewServer(broker *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(broker, ln), nil
}

// serve wraps an already-bound listener. The frame protocol is
// byte-stream-agnostic, so the same server fronts TCP and Unix-domain
// listeners (NewUnixServer).
func serve(broker *Broker, ln net.Listener) *Server {
	s := &Server{broker: broker, ln: ln, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	go s.acceptLoop()
	return s
}

// Addr returns the listening address, for clients to Dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Broker returns the broker this server fronts.
func (s *Server) Broker() *Broker { return s.broker }

// Close stops accepting and severs every connection immediately.
func (s *Server) Close() error {
	return s.Shutdown(0)
}

// Shutdown stops accepting new connections, then waits up to grace for
// the attached rank handles to finish their streams before severing
// whatever connections remain. A grace of 0 severs immediately (Close).
func (s *Server) Shutdown(grace time.Duration) error {
	err := s.ln.Close()
	if grace > 0 {
		select {
		case <-s.done: // every connection drained on its own
			s.runCleanup()
			return err
		case <-time.After(grace):
		}
	}
	s.dying.Store(true)
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-s.done
	s.runCleanup()
	return err
}

// runCleanup runs the backend teardown hook exactly once.
func (s *Server) runCleanup() {
	s.mu.Lock()
	cleanup := s.cleanup
	s.cleanup = nil
	s.mu.Unlock()
	if cleanup != nil {
		cleanup()
	}
}

func (s *Server) acceptLoop() {
	defer close(s.done)
	var wg sync.WaitGroup
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			wg.Wait()
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// respondErr and respondOK build responses in a per-connection scratch
// buffer (resp), reused across the connection's lifetime.
func respondErr(conn net.Conn, resp *[]byte, err error) error {
	f := &frameWriter{buf: (*resp)[:0]}
	defer func() { *resp = f.buf[:0] }()
	switch {
	case errors.Is(err, io.EOF):
		f.u8(stEOF)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The request's wait was aborted (peer-sent opCancel or connection
		// teardown), not refused: a distinct status lets the client tell
		// "your cancel landed" apart from a broker rejection.
		f.u8(stCancelled)
		f.str(err.Error())
	case errors.Is(err, ErrStepRetired):
		f.u8(stRetired)
		f.str(err.Error())
	case errors.Is(err, ErrWriterLost):
		f.u8(stWriterLost)
		f.str(err.Error())
	case errors.Is(err, ErrQuotaExceeded):
		f.u8(stQuota)
		f.str(err.Error())
	case errors.Is(err, ErrTenantEvicted):
		f.u8(stEvicted)
		f.str(err.Error())
	default:
		f.u8(stErr)
		f.str(err.Error())
	}
	return writeFrame(conn, 0, f.buf)
}

func respondOK(conn net.Conn, resp *[]byte, body func(*frameWriter)) error {
	f := &frameWriter{buf: (*resp)[:0]}
	defer func() { *resp = f.buf[:0] }()
	f.u8(stOK)
	if body != nil {
		body(f)
	}
	return writeFrame(conn, 0, f.buf)
}

// frame is one decoded request from a peer.
type frame struct {
	op   byte
	body []byte
}

// serveConn handles one rank handle: an attach message, then a stream of
// operations until the peer disconnects. A dedicated receive goroutine
// feeds frames to the processing loop and cancels the connection context
// when the peer goes away, so a broker operation blocked on behalf of a
// dead peer (e.g. a StepMeta rendezvous) unwinds instead of leaking.
//
// The receive goroutine also implements the writer lease: opHeartbeat
// frames are consumed inline (never blocking on the processing loop, so
// beats keep flowing while a publish is parked on a full queue) and each
// one re-arms the connection read deadline with the TTL it carries. Once
// armed, a writer that stops beating for a TTL is treated as lost.
//
// opCancel frames are likewise consumed inline: they abort the blocking
// request currently in flight, which then answers with stCancelled. The
// connection's framing stays synchronized, so a handle whose context was
// cancelled can still detach cleanly instead of being mistaken for a
// crashed writer. A client sends at most one cancel per request and
// issues no further cancellable requests on the connection after one, so
// a cancel can never abort the wrong operation.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames := make(chan frame)
	cancelCh := make(chan struct{}, 1)
	go func() {
		defer cancel()
		defer close(frames)
		var leaseTTL time.Duration
		// Request bodies land in reqScratch, reused frame after frame: the
		// peer issues strictly blocking request/response pairs, so by the
		// time the next request's bytes arrive the previous body has been
		// fully consumed and its response written. Control frames
		// (heartbeat, cancel) can arrive mid-request and therefore go to a
		// separate ctlScratch so they cannot clobber an in-flight body.
		var reqScratch, ctlScratch []byte
		pick := func(op byte, n int) []byte {
			if op == opHeartbeat || op == opCancel {
				return grow(&ctlScratch, n)
			}
			return grow(&reqScratch, n)
		}
		for {
			op, body, err := readFrameInto(conn, pick)
			if err != nil {
				// A read deadline firing while a lease is armed is a missed
				// heartbeat — the writer stopped beating — as opposed to a
				// peer that hung up or sent garbage.
				if leaseTTL > 0 && errors.Is(err, os.ErrDeadlineExceeded) {
					s.broker.obs.hbMisses.Inc()
				}
				return
			}
			if op == opHeartbeat {
				fr := &frameReader{buf: body}
				if ttl := time.Duration(fr.u32()) * time.Millisecond; fr.err == nil && ttl > 0 {
					leaseTTL = ttl
				}
			}
			if leaseTTL > 0 {
				conn.SetReadDeadline(time.Now().Add(leaseTTL))
			}
			if op == opHeartbeat {
				continue
			}
			if op == opCancel {
				select {
				case cancelCh <- struct{}{}:
				default:
				}
				continue
			}
			select {
			case frames <- frame{op: op, body: body}:
			case <-ctx.Done():
				return
			}
		}
	}()
	// arm scopes a blocking broker operation to a context an opCancel
	// frame aborts; the returned release must be called when the
	// operation finishes.
	arm := func() (context.Context, func()) {
		opCtx, opCancelFn := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			select {
			case <-cancelCh:
				opCancelFn()
			case <-done:
			}
		}()
		return opCtx, func() { close(done); opCancelFn() }
	}
	next := func() (frame, bool) {
		f, ok := <-frames
		return f, ok
	}
	// Response scratch, shared by every response this connection writes.
	var resp []byte
	first, ok := next()
	if !ok {
		return
	}
	op, body := first.op, first.body
	switch op {
	case opAttachWriter:
		fr := &frameReader{buf: body}
		stream := fr.str()
		rank := int(fr.u32())
		size := int(fr.u32())
		depth := int(fr.u32())
		if fr.err != nil {
			respondErr(conn, &resp, fr.err)
			return
		}
		w, err := s.broker.AttachWriter(stream, rank, size, depth)
		if err != nil {
			respondErr(conn, &resp, err)
			return
		}
		ring := s.shm.ring(w)
		if respondOK(conn, &resp, func(f *frameWriter) {
			f.u32(uint32(w.NextStep()))
			f.u32(uint32(ring.base))
			f.u32(uint32(ring.n))
		}) != nil {
			if !s.dying.Load() {
				w.Crash(errors.New("connection lost during attach"))
			}
			return
		}
		s.serveWriter(conn, &resp, next, arm, w)
	case opAttachReader:
		fr := &frameReader{buf: body}
		stream := fr.str()
		rank := int(fr.u32())
		size := int(fr.u32())
		if fr.err != nil {
			respondErr(conn, &resp, fr.err)
			return
		}
		r, err := s.broker.AttachReader(stream, rank, size)
		if err != nil {
			respondErr(conn, &resp, err)
			return
		}
		if respondOK(conn, &resp, func(f *frameWriter) { f.u32(uint32(r.NextStep())) }) != nil {
			if !s.dying.Load() {
				r.Close()
			}
			return
		}
		s.serveReader(conn, &resp, next, arm, r, s.shm)
	case opAttachReplay:
		fr := &frameReader{buf: body}
		stream := fr.str()
		from := int(fr.u32())
		if fr.err != nil {
			respondErr(conn, &resp, fr.err)
			return
		}
		r, err := s.broker.OpenReaderFrom(stream, from)
		if err != nil {
			respondErr(conn, &resp, err)
			return
		}
		if respondOK(conn, &resp, func(f *frameWriter) { f.u32(uint32(r.NextStep())) }) != nil {
			r.Close()
			return
		}
		// A replay session speaks the ordinary reader op set; only how the
		// broker sources the steps differs. It never gates retirement, so
		// a slot could be reused under its view: it is answered inline.
		s.serveReader(conn, &resp, next, arm, r, nil)
	default:
		respondErr(conn, &resp, fmt.Errorf("flexpath: first message must attach, got opcode %d", op))
	}
}

func (s *Server) serveWriter(conn net.Conn, resp *[]byte, next func() (frame, bool), arm func() (context.Context, func()), w *Writer) {
	// A connection that drops without a clean close or detach is a lost
	// writer: fail the stream rather than silently truncating it. Crash
	// is a no-op if an opcode below already settled the handle. When the
	// server severed the connection itself (Shutdown), the handle is
	// abandoned as-is — the peer didn't die.
	defer func() {
		if !s.dying.Load() {
			w.Crash(errors.New("writer connection lost"))
		}
	}()
	for {
		f, ok := next()
		if !ok {
			return
		}
		op, body := f.op, f.body
		switch op {
		case opPublish:
			fr := &frameReader{buf: body}
			step := int(fr.u32())
			metaB := fr.bytes()
			inline, ref, bySlot := fr.payload()
			if fr.err != nil {
				respondErr(conn, resp, fr.err)
				return
			}
			// The frame body is the receive goroutine's scratch; the broker
			// needs storage that outlives it. Copy into pooled buffers and
			// transfer ownership, so the bytes recycle when the step retires
			// instead of accumulating per step. A slot payload already
			// lives in the segment and is adopted in place.
			var payload *pool.Buf
			if bySlot {
				var err error
				if payload, err = s.shm.adopt(ref); err != nil {
					respondErr(conn, resp, err)
					return
				}
			} else {
				payload = pool.Get(len(inline))
				copy(payload.Bytes(), inline)
			}
			meta := pool.Get(len(metaB))
			copy(meta.Bytes(), metaB)
			opCtx, release := arm()
			err := w.PublishBlockRef(opCtx, step, meta, payload)
			release()
			if err != nil {
				if respondErr(conn, resp, err) != nil {
					return
				}
				continue
			}
			if respondOK(conn, resp, nil) != nil {
				return
			}
		case opShmWaitSlot:
			if !s.handleShmWaitSlot(conn, resp, body, arm) {
				return
			}
		case opCloseWriter:
			err := w.Close()
			if err != nil {
				respondErr(conn, resp, err)
			} else {
				respondOK(conn, resp, nil)
			}
			return
		case opDetachWriter:
			err := w.Detach()
			if err != nil {
				respondErr(conn, resp, err)
			} else {
				respondOK(conn, resp, nil)
			}
			return
		case opCrashWriter:
			fr := &frameReader{buf: body}
			cause := fr.str()
			err := w.Crash(errors.New(cause))
			if err != nil {
				respondErr(conn, resp, err)
			} else {
				respondOK(conn, resp, nil)
			}
			return
		default:
			respondErr(conn, resp, fmt.Errorf("flexpath: unexpected opcode %d on writer connection", op))
			return
		}
	}
}

// serveReader drives one broker-side reader handle — a live *Reader or
// a catch-up *ReplayReader — through the ReaderHandle contract,
// answering fetches by slot reference when the payload sits in shm's
// segment; a nil shm answers every fetch inline.
//
// The views StepMeta and FetchBlock return are written to the wire
// without copying or retaining them. That is safe because a served
// step cannot retire before this connection's own ReleaseStep or
// Close, this loop issues those only after the response is written,
// and the broker refuses a rank's read of a step it already released
// (ErrStepRetired), so a client cannot request a view a peer's release
// may recycle. A ReplayReader gates nothing, but its views live until
// its own release.
func (s *Server) serveReader(conn net.Conn, resp *[]byte, next func() (frame, bool), arm func() (context.Context, func()), r ReaderHandle, shm *shmServerState) {
	// A dropped reader connection is a departed rank (graceful, un-gates
	// retirement) — unless the server severed it itself during Shutdown,
	// in which case the rank is still alive elsewhere and the handle is
	// abandoned as-is.
	defer func() {
		if !s.dying.Load() {
			r.Close()
		}
	}()
	// Iovec scratch for vectored fetch responses, reused frame to frame.
	var vecs net.Buffers
	for {
		f, ok := next()
		if !ok {
			return
		}
		op, body := f.op, f.body
		fr := &frameReader{buf: body}
		switch op {
		case opWriterSize:
			opCtx, release := arm()
			n, err := r.WriterSize(opCtx)
			release()
			if err != nil {
				if respondErr(conn, resp, err) != nil {
					return
				}
				continue
			}
			if respondOK(conn, resp, func(f *frameWriter) { f.u32(uint32(n)) }) != nil {
				return
			}
		case opStepMeta:
			step := int(fr.u32())
			if fr.err != nil {
				respondErr(conn, resp, fr.err)
				return
			}
			opCtx, release := arm()
			metas, err := r.StepMeta(opCtx, step)
			release()
			if err != nil {
				if respondErr(conn, resp, err) != nil {
					return
				}
				continue
			}
			if respondOK(conn, resp, func(f *frameWriter) {
				f.u32(uint32(len(metas)))
				for _, m := range metas {
					f.bytes(m)
				}
			}) != nil {
				return
			}
		case opFetchBlock:
			step := int(fr.u32())
			writerRank := int(fr.u32())
			if fr.err != nil {
				respondErr(conn, resp, fr.err)
				return
			}
			opCtx, release := arm()
			inline, err := r.FetchBlock(opCtx, step, writerRank)
			release()
			if err != nil {
				if respondErr(conn, resp, err) != nil {
					return
				}
				continue
			}
			// Vectored response: status and payload marker staged in the
			// response scratch, the payload itself gathered straight from
			// the broker-held buffer — one writev, no payload copy. A
			// payload in a segment slot goes by reference instead.
			f := &frameWriter{buf: (*resp)[:0]}
			f.u8(stOK)
			if ref, ok := shm.ref(inline); ok {
				f.slotRef(ref)
				inline = nil
			} else {
				f.inlineHead(len(inline))
			}
			werr := writeFrameVec(conn, &vecs, 0, f.buf, inline)
			*resp = f.buf[:0]
			if werr != nil {
				return
			}
		case opReleaseStep:
			step := int(fr.u32())
			if fr.err != nil {
				respondErr(conn, resp, fr.err)
				return
			}
			if err := r.ReleaseStep(step); err != nil {
				if respondErr(conn, resp, err) != nil {
					return
				}
				continue
			}
			if respondOK(conn, resp, nil) != nil {
				return
			}
		case opCloseReader:
			err := r.Close()
			if err != nil {
				respondErr(conn, resp, err)
			} else {
				respondOK(conn, resp, nil)
			}
			return
		case opDetachReader:
			err := r.Detach()
			if err != nil {
				respondErr(conn, resp, err)
			} else {
				respondOK(conn, resp, nil)
			}
			return
		default:
			respondErr(conn, resp, fmt.Errorf("flexpath: unexpected opcode %d on reader connection", op))
			return
		}
	}
}
