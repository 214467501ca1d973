package flexpath

import (
	"context"
	"fmt"
	"os"
	"strings"

	"repro/internal/pool"
)

// This file makes the transport contract formal. The paper's FlexPath
// layer matters precisely because any component can be re-wired over it
// without recompilation (§IV); ADIOS2 makes the same point with engines
// — one pub/sub contract, interchangeable backends. This is the only
// statement of the per-rank contract: adios.BlockWriter/BlockReader
// alias the two handle interfaces, sb.Transport is the attach subset of
// Transport, and the supervisor and fault injector call every handle
// method directly — only the transport-level capability below,
// ReplayTransport, is optional. Every backend implements the contract,
// every backend is proven against the same conformance suite
// (internal/flexpath/conformance), and a new backend inherits the full
// protocol contract — visibility gating, backpressure, launch-order
// independence, EOF/crash/detach semantics, retirement — for free.

// WriterHandle is one writer rank's handle on a stream, independent of
// which backend carries it. Exactly one of Close, Detach, or Crash ends
// the handle (see the package comment's fault model); all three are
// idempotent.
type WriterHandle interface {
	// NextStep returns the step this rank publishes next — the resume
	// point after a supervised detach/re-attach.
	NextStep() int
	// PublishBlock queues this rank's block for the given timestep,
	// blocking while the stream's queue window is full. Steps must be
	// published in order 0,1,2,… per rank.
	PublishBlock(ctx context.Context, step int, meta, payload []byte) error
	// PublishBlockRef is PublishBlock with ownership transfer of pooled
	// buffers (the zero-copy path); the references are consumed even on
	// error.
	PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error
	// Close retires the rank gracefully; a fully closed writer group
	// ends the stream (readers see io.EOF past the last common step).
	Close() error
	// Detach releases the rank's slot for a supervised restart without
	// ending or failing the stream.
	Detach() error
	// Crash reports the rank lost: the stream fails and blocked peers
	// and readers get ErrWriterLost.
	Crash(cause error) error
}

// ReaderHandle is one reader rank's handle on a stream, independent of
// which backend carries it.
type ReaderHandle interface {
	// NextStep returns the group-wide resume point: the lowest step not
	// yet released by every rank of the reader group.
	NextStep() int
	// WriterSize blocks until the writer group attaches and returns its
	// size.
	WriterSize(ctx context.Context) (int, error)
	// StepMeta blocks until the timestep is fully published and returns
	// each writer rank's metadata blob; io.EOF once the stream ended
	// before the step, ErrWriterLost if a writer crashed before
	// completing it.
	StepMeta(ctx context.Context, step int) ([][]byte, error)
	// FetchBlock returns the payload one writer rank wrote for the step.
	FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error)
	// ReleaseStep declares this rank finished with the step; once every
	// rank released it, the step retires and the writer window advances.
	ReleaseStep(step int) error
	// Close departs the group: the rank stops gating step retirement.
	Close() error
	// Detach suspends the rank for a supervised restart while still
	// gating retirement, so buffered steps survive.
	Detach() error
}

// ReplayTransport is the optional catch-up capability: backends whose
// broker carries a durable stream log (AttachLog) can open observer
// readers positioned at a historical step. Both shipped backends
// implement it; OpenReaderFrom is the capability-checked entry point.
type ReplayTransport interface {
	// OpenReaderFrom opens a catch-up reader on a stream positioned at
	// step from. The handle replays steps still within the log's
	// retention budget from disk (evicted steps surface ErrStepRetired),
	// then hands off to live tailing. It is an observer: it joins no
	// reader group and never gates retirement.
	OpenReaderFrom(stream string, from int) (ReaderHandle, error)
}

// OpenReaderFrom opens a catch-up reader over any Transport, failing
// cleanly when the backend lacks the replay capability.
func OpenReaderFrom(t Transport, stream string, from int) (ReaderHandle, error) {
	rt, ok := t.(ReplayTransport)
	if !ok {
		return nil, fmt.Errorf("flexpath: transport %T does not support replay readers", t)
	}
	return rt.OpenReaderFrom(stream, from)
}

// Transport is a stream-fabric backend: it attaches per-rank writer and
// reader handles to named streams. All backends share one protocol —
// the contract checks in internal/flexpath/conformance are the
// normative statement of it — so components, the workflow supervisor,
// and fault injection are oblivious to which backend they run over.
type Transport interface {
	// AttachWriter joins the writer group of a stream as rank of size,
	// with the given queue depth (0 selects the backend default).
	AttachWriter(stream string, rank, size, depth int) (WriterHandle, error)
	// AttachReader joins the reader group of a stream as rank of size.
	AttachReader(stream string, rank, size int) (ReaderHandle, error)
	// Close releases backend resources (connections, sockets). It does
	// not settle outstanding handles — each rank handle ends via its own
	// Close/Detach/Crash.
	Close() error
}

// Backend kinds selectable at run time (sbrun/sbbroker/sbcomp
// -transport, the launch-script `transport` directive, Open).
const (
	// KindInproc is the in-process Broker: ranks are goroutines sharing
	// one address space, blocks move by reference.
	KindInproc = "inproc"
	// KindTCP is the TCP broker: one connection per rank handle,
	// CRC-framed, heartbeat writer leases. Works across hosts.
	KindTCP = "tcp"
	// KindUDS is the Unix-domain-socket broker: the same CRC frame codec
	// and client as TCP, for multi-process workflows on one host that
	// should skip TCP loopback overhead. addr is a socket path.
	KindUDS = "uds"
	// KindShm is the shared-memory broker: a UDS doorbell for control
	// and metadata plus an mmap'd segment (addr + ".seg") carrying
	// payloads — same-node multi-process runs with cross-process
	// zero-copy reads. addr is the doorbell socket path. A client dials
	// it exactly as uds; the segment is a broker setting.
	KindShm = "shm"
	// KindAuto defers the choice to placement: the plan layer (or
	// ResolveAuto, from the address shape alone) picks inproc when all
	// stages share a process, shm for a same-node broker path, tcp for
	// a host:port.
	KindAuto = "auto"
)

// ResolveAuto maps a broker address to the cheapest concrete backend
// kind its shape admits: no address means no other process can
// rendezvous, so the in-process broker; a path (contains a separator)
// names a same-node socket, where the shared-memory backend wins; a
// host:port may cross nodes, so TCP. This is the single address-shape
// rule sbrun, sbcomp, and the plan resolver share — deterministic by
// construction, no runtime probing.
func ResolveAuto(addr string) string {
	switch {
	case addr == "":
		return KindInproc
	case strings.ContainsRune(addr, os.PathSeparator):
		return KindShm
	default:
		return KindTCP
	}
}

// InProc adapts the in-process Broker to Transport.
type InProc struct {
	B *Broker
}

// NewInProc returns a Transport over a fresh in-process broker.
func NewInProc() InProc { return InProc{B: NewBroker()} }

// AttachWriter implements Transport.
func (t InProc) AttachWriter(stream string, rank, size, depth int) (WriterHandle, error) {
	w, err := t.B.AttachWriter(stream, rank, size, depth)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// AttachReader implements Transport.
func (t InProc) AttachReader(stream string, rank, size int) (ReaderHandle, error) {
	r, err := t.B.AttachReader(stream, rank, size)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// OpenReaderFrom implements ReplayTransport.
func (t InProc) OpenReaderFrom(stream string, from int) (ReaderHandle, error) {
	r, err := t.B.OpenReaderFrom(stream, from)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Close implements Transport. The broker itself holds no resources
// beyond its streams, which retire through handle settlement.
func (t InProc) Close() error { return nil }

// Open returns a Transport for the named backend kind. addr is ignored
// for inproc (a fresh broker is created), a host:port for tcp, and a
// socket path for uds and shm, which dial the same client: the broker
// behind the path decides whether payloads ride its shared-memory
// segment. This is the single place run-time backend selection
// resolves, shared by sbrun, sbcomp, and the benchmarks.
func Open(kind, addr string) (Transport, error) {
	switch kind {
	case KindInproc, "":
		return NewInProc(), nil
	case KindTCP:
		if addr == "" {
			return nil, fmt.Errorf("flexpath: transport %q requires a broker address (host:port)", kind)
		}
		return Dial(addr), nil
	case KindUDS, KindShm:
		if addr == "" {
			return nil, fmt.Errorf("flexpath: transport %q requires a broker socket path", kind)
		}
		return DialUnix(addr), nil
	case KindAuto:
		return Open(ResolveAuto(addr), addr)
	default:
		return nil, fmt.Errorf("flexpath: unknown transport kind %q (want %s, %s, %s, %s, or %s)",
			kind, KindInproc, KindTCP, KindUDS, KindShm, KindAuto)
	}
}

// Router dispatches stream attachments to per-stream transports — the
// runtime realization of per-edge transport resolution: the plan layer
// decides which backend each edge rides, the Router carries that
// decision into every AttachWriter/AttachReader without components
// knowing anything changed.
type Router struct {
	// Routes maps a stream name to its transport. Streams absent from
	// the map use Default.
	Routes map[string]Transport
	// Default carries any stream without an explicit route.
	Default Transport
}

func (r Router) route(stream string) Transport {
	if t, ok := r.Routes[stream]; ok {
		return t
	}
	return r.Default
}

// AttachWriter implements Transport.
func (r Router) AttachWriter(stream string, rank, size, depth int) (WriterHandle, error) {
	return r.route(stream).AttachWriter(stream, rank, size, depth)
}

// AttachReader implements Transport.
func (r Router) AttachReader(stream string, rank, size int) (ReaderHandle, error) {
	return r.route(stream).AttachReader(stream, rank, size)
}

// OpenReaderFrom implements ReplayTransport, failing cleanly when the
// routed backend lacks the capability.
func (r Router) OpenReaderFrom(stream string, from int) (ReaderHandle, error) {
	return OpenReaderFrom(r.route(stream), stream, from)
}

// Close closes each distinct underlying transport exactly once.
func (r Router) Close() error {
	closed := map[Transport]bool{}
	var first error
	for _, t := range r.Routes {
		if t == nil || closed[t] {
			continue
		}
		closed[t] = true
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.Default != nil && !closed[r.Default] {
		if err := r.Default.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Interface conformance: both broker-side and socket-side handles must
// satisfy the formal contract.
var (
	_ WriterHandle = (*Writer)(nil)
	_ WriterHandle = (*RemoteWriter)(nil)
	_ ReaderHandle = (*Reader)(nil)
	_ ReaderHandle = (*RemoteReader)(nil)
	_ ReaderHandle = (*ReplayReader)(nil)
	_ Transport    = InProc{}
	_ Transport    = (*Client)(nil)
	_ Transport    = Router{}

	_ ReplayTransport = InProc{}
	_ ReplayTransport = (*Client)(nil)
	_ ReplayTransport = Router{}
)
