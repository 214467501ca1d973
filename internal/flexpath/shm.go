package flexpath

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/pool"
)

// Shared-memory data plane: same-node multi-process runs pay the socket
// tax (user→kernel→user copies in both directions) for payloads that
// never leave the machine. A broker started with NewShmServer adds a
// payload side channel to the ordinary Unix-socket protocol:
//
//   - The socket — the same CRC frames, heartbeat leases, cancel and
//     replay attach as every socket broker — still carries attach and
//     detach, step metadata, and control RPCs. It is the same server
//     loop and the same client (DialUnix); only what the payload bytes
//     ride differs.
//   - A data plane — an mmap'd, file-backed segment (the socket path +
//     ".seg", so the flock arbitration that owns the socket also owns
//     the segment). A writer's attach answer hands it a ring of slots;
//     it copies each payload once into its slot and publishes a slot
//     reference (opPublish with the slot marker); fetch answers
//     reference the slot too, and readers get views aliasing their
//     mapping of the same physical pages. No payload byte crosses the
//     socket in either direction.
//
// The broker's flavour decides the data plane: a broker without a
// segment hands out no rings and answers every fetch inline, and a
// client maps the segment only once the broker references it.
//
// Slot lifecycle rides the pool's refcount machinery: the broker wraps
// a published slot with pool.WrapOnFree, so the exact moment a step's
// fan-out ends (retirement drops the last reference) the hook returns
// the slot to its writer's ring.
//
// Per-slot control word (u64, atomically accessed by every process):
//
//	bits 63..32  generation, bumped by the writer on every claim
//	bits 31..0   state: 0 = free, 1 = busy (claimed or published)
//
// The word is also the cross-process happens-before chain, on real
// hardware and under the race detector alike:
//
//	writer: observe free (acquire) → write payload → store gen+1|busy
//	broker: slot publish validates gen (acquire) → wraps the slot
//	reader: fetch response → validate gen (acquire: sees the payload)
//	reader: read payload → RMW "touch" (add 0) at release time
//	broker: final ref drops → RMW busy→free (joins the touch's
//	        release sequence)
//	writer: observe free (acquire: sees every reader's reads) → reuse
//
// The reader-side touch looks like a no-op but is the edge that lets a
// writer's reuse of the slot happen-after every reader's last read —
// without it the only path from reader to writer would run through the
// release RPC, which is invisible to the race detector when both ends
// live in one test process.
//
// Ring sizing is a broker setting: a writer's ring defaults to
// queueDepth+1 slots, which can never block before the broker's own
// queue window does — claiming the slot for step s reuses the slot of
// step s-(depth+1), and the window admitting step s-1 already implied
// that step retired. Smaller rings (ShmConfig.RingSlots) exercise the
// opShmWaitSlot backpressure path; the conformance suite pins that
// behavior.

// ShmConfig sizes the shared segment. The zero value selects defaults.
type ShmConfig struct {
	// SegmentBytes is the byte size of the mapped segment file (default
	// 256 MiB). The file is created sparse, so untouched slots cost no
	// memory; /dev/shm-backed paths cost RAM only for pages written.
	SegmentBytes int64
	// SlotBytes is the payload capacity of one ring slot (default
	// 4 MiB). Payloads larger than a slot fall back to the inline
	// socket path transparently.
	SlotBytes int
	// RingSlots fixes the length of every writer's ring. 0 sizes each
	// ring queueDepth+1, which never blocks a writer the queue window
	// would admit.
	RingSlots int
}

func (c ShmConfig) withDefaults() ShmConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 256 << 20
	}
	if c.SlotBytes <= 0 {
		c.SlotBytes = 4 << 20
	}
	return c
}

// Segment header layout (bytes). The header is written once by the
// broker before the doorbell socket accepts its first connection, so a
// client that attached successfully always maps a fully formed segment.
const (
	shmMagic       = "SBSHMSEG"
	shmVersion     = 1
	shmHdrVersion  = 8  // u32
	shmHdrSlotSize = 16 // u64
	shmHdrSlots    = 24 // u64
	shmHdrCtrlOff  = 32 // u64
	shmHdrDataOff  = 40 // u64
	shmHeaderBytes = 64
	shmPageAlign   = 4096
)

const shmBusyBit = uint64(1)

func shmWord(gen uint32, busy bool) uint64 {
	w := uint64(gen) << 32
	if busy {
		w |= shmBusyBit
	}
	return w
}

func shmGenOf(w uint64) uint32 { return uint32(w >> 32) }
func shmBusy(w uint64) bool    { return w&0xffffffff != 0 }

// shmSegment is one process's mapping of the shared segment file.
type shmSegment struct {
	f         *os.File
	mem       []byte
	slotBytes int
	slotCount int
	ctrlOff   int
	dataOff   int
}

func putU64(b []byte, off int, v uint64) {
	for i := 0; i < 8; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte, off int) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[off+i]) << (8 * i)
	}
	return v
}

// createShmSegment creates (truncating any leftover) and maps the
// segment file. Only the broker calls this, under the socket flock.
func createShmSegment(path string, cfg ShmConfig) (*shmSegment, error) {
	cfg = cfg.withDefaults()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("flexpath: creating shm segment %s: %w", path, err)
	}
	if err := f.Truncate(cfg.SegmentBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("flexpath: sizing shm segment %s: %w", path, err)
	}
	// Solve for the slot count that fits control words + data in the
	// segment, with the data region page-aligned.
	slots := int((cfg.SegmentBytes - 2*shmPageAlign) / (int64(cfg.SlotBytes) + 8))
	if slots < 1 {
		f.Close()
		return nil, fmt.Errorf("flexpath: shm segment %s too small for one %d-byte slot", path, cfg.SlotBytes)
	}
	ctrlOff := shmHeaderBytes
	dataOff := (ctrlOff + 8*slots + shmPageAlign - 1) &^ (shmPageAlign - 1)
	mem, err := mmapShared(f, int(cfg.SegmentBytes))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("flexpath: mapping shm segment %s: %w", path, err)
	}
	copy(mem[:8], shmMagic)
	putU64(mem, shmHdrVersion, shmVersion) // writes version u32 + 4 zero bytes of padding
	putU64(mem, shmHdrSlotSize, uint64(cfg.SlotBytes))
	putU64(mem, shmHdrSlots, uint64(slots))
	putU64(mem, shmHdrCtrlOff, uint64(ctrlOff))
	putU64(mem, shmHdrDataOff, uint64(dataOff))
	return &shmSegment{f: f, mem: mem, slotBytes: cfg.SlotBytes, slotCount: slots,
		ctrlOff: ctrlOff, dataOff: dataOff}, nil
}

// openShmSegment maps an existing segment created by a broker.
func openShmSegment(path string) (*shmSegment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("flexpath: opening shm segment %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	mem, err := mmapShared(f, int(fi.Size()))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("flexpath: mapping shm segment %s: %w", path, err)
	}
	g := &shmSegment{f: f, mem: mem}
	if len(mem) < shmHeaderBytes || string(mem[:8]) != shmMagic {
		g.close()
		return nil, fmt.Errorf("flexpath: %s is not a shm segment", path)
	}
	if v := getU64(mem, shmHdrVersion); v != shmVersion {
		g.close()
		return nil, fmt.Errorf("flexpath: shm segment %s version %d, want %d", path, v, shmVersion)
	}
	g.slotBytes = int(getU64(mem, shmHdrSlotSize))
	g.slotCount = int(getU64(mem, shmHdrSlots))
	g.ctrlOff = int(getU64(mem, shmHdrCtrlOff))
	g.dataOff = int(getU64(mem, shmHdrDataOff))
	if g.dataOff+g.slotCount*g.slotBytes > len(mem) || g.ctrlOff+8*g.slotCount > g.dataOff {
		g.close()
		return nil, fmt.Errorf("flexpath: shm segment %s header inconsistent", path)
	}
	return g, nil
}

func (g *shmSegment) close() {
	if g.mem != nil {
		munmapShared(g.mem)
		g.mem = nil
	}
	if g.f != nil {
		g.f.Close()
		g.f = nil
	}
}

// ctrl returns the slot's control word for atomic access. The control
// region starts 64-byte aligned in a page-aligned mapping, so every
// word is naturally 8-aligned.
func (g *shmSegment) ctrl(slot int) *uint64 {
	return (*uint64)(unsafe.Pointer(&g.mem[g.ctrlOff+8*slot]))
}

// slotData returns the slot's full data window.
func (g *shmSegment) slotData(slot int) []byte {
	off := g.dataOff + slot*g.slotBytes
	return g.mem[off : off+g.slotBytes]
}

// slotRef names a payload that sits in a segment slot: what a slot
// publish and a by-reference fetch answer carry in place of the bytes.
type slotRef struct {
	slot int
	gen  uint32
	n    int
}

// shmRing is one writer rank's run of slots. Slot for step s is
// base + s%n, so in-order publishing cycles the run. The zero ring
// means the writer publishes inline.
type shmRing struct {
	base, n int
}

func (r shmRing) slot(step int) int { return r.base + step%r.n }

// shmServerState is the broker side of the data plane: the segment and
// the ring allocator. Rings are keyed by (stream, writer rank) so a
// supervised re-attach resumes on the same slots its unretired steps
// still occupy; allocation is a bump pointer, never reclaimed — when
// the segment is exhausted new writers degrade to the inline path.
type shmServerState struct {
	seg       *shmSegment
	ringSlots int // ShmConfig.RingSlots

	mu       sync.Mutex
	nextSlot int
	rings    map[shmRingKey]shmRing
}

type shmRingKey struct {
	stream string
	rank   int
}

// ring returns the writer rank's run of slots, carried in its attach
// answer. A broker without a segment, or with an exhausted one, hands
// out the zero ring: that writer publishes inline and the workflow
// keeps running.
func (st *shmServerState) ring(w *Writer) shmRing {
	if st == nil {
		return shmRing{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	k := shmRingKey{w.s.name, w.rank}
	if r, ok := st.rings[k]; ok {
		return r
	}
	want := st.ringSlots
	if want < 1 {
		// The attach that handed us w fixed the stream's queue depth
		// under the broker lock; it never changes after.
		want = w.s.queueDepth + 1
	}
	if st.nextSlot+want > st.seg.slotCount {
		return shmRing{}
	}
	r := shmRing{base: st.nextSlot, n: want}
	st.nextSlot += want
	st.rings[k] = r
	return r
}

// ref reports the slot reference of a broker-held payload, if it is a
// view of the segment's data region starting on a slot boundary. The
// broker uses it to answer fetches by reference instead of by copy.
func (st *shmServerState) ref(p []byte) (slotRef, bool) {
	if st == nil || len(p) == 0 {
		return slotRef{}, false
	}
	g := st.seg
	base := uintptr(unsafe.Pointer(unsafe.SliceData(g.mem)))
	q := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	start := base + uintptr(g.dataOff)
	end := start + uintptr(g.slotCount*g.slotBytes)
	if q < start || q >= end {
		return slotRef{}, false
	}
	off := int(q - start)
	if off%g.slotBytes != 0 {
		return slotRef{}, false
	}
	slot := off / g.slotBytes
	return slotRef{slot: slot, gen: shmGenOf(atomic.LoadUint64(g.ctrl(slot))), n: len(p)}, true
}

// NewShmServer starts a shared-memory broker: a Unix-socket doorbell at
// path (flock-arbitrated exactly like NewUnixServer) plus the mapped
// segment at path+".seg". The segment is fully initialized before the
// doorbell accepts connections, so any client that attaches maps a
// valid segment. Shutdown unmaps and removes the segment alongside the
// socket.
func NewShmServer(broker *Broker, path string, cfg ShmConfig) (*Server, error) {
	if !shmAvailable() {
		return nil, errNoShm
	}
	ln, lock, err := listenUnix(path)
	if err != nil {
		return nil, err
	}
	segPath := path + ".seg"
	seg, err := createShmSegment(segPath, cfg)
	if err != nil {
		ln.Close()
		os.Remove(path)
		lock.Close()
		return nil, err
	}
	s := &Server{broker: broker, ln: ln, conns: map[net.Conn]struct{}{}, done: make(chan struct{}),
		shm: &shmServerState{seg: seg, ringSlots: cfg.RingSlots, rings: map[shmRingKey]shmRing{}}}
	s.cleanup = func() {
		seg.close()
		os.Remove(segPath)
		lock.Close()
	}
	go s.acceptLoop()
	return s, nil
}

var errNoShm = errors.New("flexpath: shm transport not supported on this platform")

// adopt takes over a slot a writer published into as the step's
// payload. Ownership of the slot's busy claim passes to the broker the
// moment the request parses: every outcome — publish, rejection,
// cancellation — ends in the wrapped buffer's references being
// consumed, whose final Release frees the slot. The client never rolls
// a claim back, so there is no ambiguous double-free window. A
// reference the segment cannot hold, or whose generation is stale, is
// refused and leaves the control word untouched.
func (st *shmServerState) adopt(ref slotRef) (*pool.Buf, error) {
	if st == nil || ref.slot < 0 || ref.slot >= st.seg.slotCount || ref.n > st.seg.slotBytes {
		return nil, fmt.Errorf("flexpath: invalid shm publish (slot %d, %d bytes)", ref.slot, ref.n)
	}
	ctrl := st.seg.ctrl(ref.slot)
	// Acquire-load: observing the writer's published control word makes
	// its payload bytes visible to every broker-side consumer (log
	// appender, inline fallback serving).
	if cw := atomic.LoadUint64(ctrl); shmGenOf(cw) != ref.gen || !shmBusy(cw) {
		return nil, fmt.Errorf("flexpath: shm slot %d generation mismatch (have %08x, claimed %08x)", ref.slot, shmGenOf(cw), ref.gen)
	}
	return pool.WrapOnFree(st.seg.slotData(ref.slot)[:ref.n], func() {
		// busy→free keeping the generation; an atomic RMW so it joins
		// the release sequence of the readers' touches — the writer's
		// next acquire of this word happens-after their last reads. The
		// hook may run under the broker lock (retirement) or without it
		// (appender, server response paths); it is atomic-only either
		// way, and every waiter rechecks on a poll tick.
		atomic.AddUint64(ctrl, ^uint64(0))
	}), nil
}

// handleShmWaitSlot parks a writer until its ring slot returns to free.
// This is the ring-full backpressure path: reached only when the ring
// is deliberately smaller than queueDepth+1, so a cold 500µs poll is
// plenty — and polling sidesteps every missed-wakeup hazard of waiting
// on broker state from a reclamation hook that must stay lock-free.
func (s *Server) handleShmWaitSlot(conn net.Conn, resp *[]byte, body []byte,
	arm func() (context.Context, func())) bool {
	fr := &frameReader{buf: body}
	slot := int(fr.u32())
	if fr.err != nil {
		respondErr(conn, resp, fr.err)
		return false
	}
	shm := s.shm
	if shm == nil || slot < 0 || slot >= shm.seg.slotCount {
		respondErr(conn, resp, fmt.Errorf("flexpath: invalid shm wait (slot %d)", slot))
		return false
	}
	ctrl := shm.seg.ctrl(slot)
	opCtx, release := arm()
	var err error
	for shmBusy(atomic.LoadUint64(ctrl)) {
		if err = opCtx.Err(); err != nil {
			break
		}
		select {
		case <-opCtx.Done():
			err = opCtx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if err != nil {
			break
		}
	}
	release()
	if err != nil {
		return respondErr(conn, resp, err) == nil
	}
	return respondOK(conn, resp, nil) == nil
}

// segment maps the broker's segment (the socket path + ".seg") the
// first time the broker hands this client a ring or a slot reference,
// and reuses that mapping after.
func (c *Client) segment() (*shmSegment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seg == nil {
		seg, err := openShmSegment(c.addr + ".seg")
		if err != nil {
			return nil, err
		}
		c.seg = seg
	}
	return c.seg, nil
}

// claim copies payload into this rank's ring slot for step and stores
// the slot's new control word, returning the reference the publish
// carries. The caller holds w.mu and is staging the publish in w.fbuf,
// so a wait request is framed in a buffer of its own.
func (w *RemoteWriter) claim(ctx context.Context, step int, payload []byte) (slotRef, error) {
	slot := w.ring.slot(step)
	ctrl := w.seg.ctrl(slot)
	// Wait for the slot to come back from its previous step. The
	// acquire load is the happens-before edge over every reader's last
	// read of the old payload. With the default ring (queueDepth+1) the
	// wait RPC is never taken — the queue window blocks first.
	for shmBusy(atomic.LoadUint64(ctrl)) {
		f := &frameWriter{}
		f.u32(uint32(slot))
		if _, err := call(ctx, w.conn, &w.wmu, opShmWaitSlot, f.buf, &w.rbuf); err != nil {
			return slotRef{}, err
		}
	}
	gen := shmGenOf(atomic.LoadUint64(ctrl)) + 1
	copy(w.seg.slotData(slot), payload)
	// Publication point: the release store makes the payload bytes
	// visible to whoever acquires the new control word.
	atomic.StoreUint64(ctrl, shmWord(gen, true))
	return slotRef{slot: slot, gen: gen, n: len(payload)}, nil
}

// view resolves a by-reference fetch answer to a slice of this
// process's mapping and records the slot for the touch at release. The
// view is valid until this rank releases the step: the broker cannot
// free the slot before then, since this rank still gates retirement.
// The caller holds r.mu.
func (r *RemoteReader) view(step int, ref slotRef) ([]byte, error) {
	seg, err := r.c.segment()
	if err != nil {
		return nil, err
	}
	if ref.slot < 0 || ref.slot >= seg.slotCount || ref.n > seg.slotBytes {
		return nil, fmt.Errorf("flexpath: shm fetch referenced invalid slot %d", ref.slot)
	}
	ctrl := seg.ctrl(ref.slot)
	// Acquire the control word: validates the generation (the slot
	// still holds the step we asked for) and orders the writer's
	// payload store before our reads.
	if cw := atomic.LoadUint64(ctrl); shmGenOf(cw) != ref.gen || !shmBusy(cw) {
		return nil, fmt.Errorf("flexpath: shm slot %d generation changed under fetch (step %d)", ref.slot, step)
	}
	r.frames = append(r.frames, fetchedStep{step: step, ctrl: ctrl})
	return seg.slotData(ref.slot)[:ref.n], nil
}
