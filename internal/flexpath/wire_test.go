package flexpath

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"
)

// Socket-client properties the conformance suite cannot express: where
// fetched payloads land in memory, which data plane the broker picks
// for a client, and how the broker refuses a malformed slot publish.

// sockPath returns a socket path in a short temp dir (AF_UNIX paths are
// limited to ~104 bytes), skipping where Unix sockets are unavailable.
func sockPath(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "sbwire")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "b.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Skipf("platform without AF_UNIX support: %v", err)
	}
	ln.Close()
	return path
}

// startShmServer starts a shared-memory broker, skipping where shared
// file mappings are unavailable.
func startShmServer(t *testing.T, cfg ShmConfig) (*Server, string) {
	t.Helper()
	if !shmAvailable() {
		t.Skip("platform without shm segment support")
	}
	path := sockPath(t)
	srv, err := NewShmServer(NewBroker(), path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, path
}

// Inline fetch payloads must start 8-byte aligned, or the zero-copy
// payload decode falls back to a copy: the payload marker and length in
// front of the bytes are laid out (fetchLead) to keep them aligned.
func TestFetchPayloadAligned(t *testing.T) {
	dialers := map[string]func(t *testing.T) *Client{
		"tcp": func(t *testing.T) *Client {
			_, c := startServer(t)
			return c
		},
		"uds": func(t *testing.T) *Client {
			path := sockPath(t)
			srv, err := NewUnixServer(NewBroker(), path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := DialUnix(path)
			t.Cleanup(func() { c.Close() })
			return c
		},
	}
	for name, dial := range dialers {
		t.Run(name, func(t *testing.T) {
			c := dial(t)
			ctx := ctxT(t)
			w, err := c.AttachWriter("align.fp", 0, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			r, err := c.AttachReader("align.fp", 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for step, n := range []int{1, 7, 8, 4097} {
				want := bytes.Repeat([]byte{byte(n)}, n)
				if err := w.PublishBlock(ctx, step, []byte("m"), want); err != nil {
					t.Fatal(err)
				}
				got, err := r.FetchBlock(ctx, step, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%d-byte payload corrupt", n)
				}
				if p := uintptr(unsafe.Pointer(&got[0])); p%8 != 0 {
					t.Fatalf("%d-byte payload at %#x, not 8-byte aligned", n, p)
				}
				if err := r.ReleaseStep(step); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// The broker decides the data plane: a client dialed as uds against a
// shared-memory broker publishes through its ring, and its reader's
// views alias the segment — after one ring cycle (queueDepth+1 = 3
// slots) a step lands in the storage of the step three before it.
func TestUDSClientUsesShmBrokerRing(t *testing.T) {
	_, path := startShmServer(t, ShmConfig{})
	tr, err := Open(KindUDS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := ctxT(t)
	w, err := tr.AttachWriter("cross.fp", 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if ring := w.(*RemoteWriter).ring; ring.n != 3 {
		t.Fatalf("uds writer got ring %+v from a shm broker, want 3 slots", ring)
	}
	r, err := tr.AttachReader("cross.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var views [][]byte
	for step := 0; step < 4; step++ {
		if err := w.PublishBlock(ctx, step, nil, bytes.Repeat([]byte{byte(step)}, 64)); err != nil {
			t.Fatal(err)
		}
		v, err := r.FetchBlock(ctx, step, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v[0] != byte(step) || v[63] != byte(step) {
			t.Fatalf("step %d payload corrupt: % x", step, v[:4])
		}
		views = append(views, v)
		if err := r.ReleaseStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if &views[3][0] != &views[0][0] {
		t.Fatal("step 3 did not reuse step 0's slot: the uds client is not on the shm data plane")
	}
}

// The other crossing: a client dialed as shm against a plain Unix-socket
// broker gets no ring, never maps a segment, and runs inline end to end.
func TestShmClientRunsInlineOnUnixBroker(t *testing.T) {
	path := sockPath(t)
	srv, err := NewUnixServer(NewBroker(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := Open(KindShm, path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := ctxT(t)
	w, err := tr.AttachWriter("inline.fp", 0, 1, 2)
	if err != nil {
		t.Fatalf("shm client against a uds broker: %v", err)
	}
	r, err := tr.AttachReader("inline.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for step := 0; step < 4; step++ {
		want := bytes.Repeat([]byte{byte(step + 1)}, 100)
		if err := w.PublishBlock(ctx, step, []byte{byte(step)}, want); err != nil {
			t.Fatal(err)
		}
		got, err := r.FetchBlock(ctx, step, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d payload corrupt", step)
		}
		if err := r.ReleaseStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.(*Client).seg != nil {
		t.Fatal("client mapped a segment the broker never referenced")
	}
}

// rawSlotPublish attaches a writer on a hand-framed connection, sends
// one slot publish carrying ref, and returns the broker's answer
// status and message.
func rawSlotPublish(t *testing.T, network, addr string, ref slotRef) (byte, string) {
	t.Helper()
	conn, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := &frameWriter{}
	f.str("reject.fp")
	f.u32(0) // rank
	f.u32(1) // size
	f.u32(0) // depth
	if err := writeFrame(conn, opAttachWriter, f.buf); err != nil {
		t.Fatal(err)
	}
	if _, body, err := readFrame(conn); err != nil {
		t.Fatal(err)
	} else if fr := (&frameReader{buf: body}); fr.u8() != stOK {
		t.Fatalf("attach rejected: %s", fr.str())
	}
	p := &frameWriter{}
	p.u32(0) // step
	p.bytes([]byte("m"))
	p.slotRef(ref)
	if err := writeFrame(conn, opPublish, p.buf); err != nil {
		t.Fatal(err)
	}
	_, body, err := readFrame(conn)
	if err != nil {
		t.Fatalf("no answer to a rejected slot publish: %v", err)
	}
	fr := &frameReader{buf: body}
	return fr.u8(), fr.str()
}

// A slot publish the broker cannot honour gets an error answer, leaves
// every control word as it was, and leaves the server serving.
func TestSlotPublishRejected(t *testing.T) {
	checkServing := func(t *testing.T, c *Client) {
		t.Helper()
		defer c.Close()
		w, err := c.AttachWriter("after.fp", 0, 1, 0)
		if err != nil {
			t.Fatalf("server stopped serving after a rejected slot publish: %v", err)
		}
		if err := w.PublishBlock(ctxT(t), 0, nil, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	t.Run("no segment", func(t *testing.T) {
		srv, _ := startServer(t)
		st, msg := rawSlotPublish(t, "tcp", srv.Addr(), slotRef{slot: 0, gen: 1, n: 4})
		if st != stErr || !strings.Contains(msg, "invalid shm publish") {
			t.Fatalf("answer = %d %q, want an invalid-publish error", st, msg)
		}
		checkServing(t, Dial(srv.Addr()))
	})
	cases := []struct {
		name string
		ref  func(seg *shmSegment) slotRef
		want string
	}{
		{"slot out of range", func(seg *shmSegment) slotRef {
			return slotRef{slot: seg.slotCount, gen: 1, n: 4}
		}, "invalid shm publish"},
		{"stale generation", func(seg *shmSegment) slotRef {
			// The writer's slot 0 as a claim of generation 5 left it;
			// the publish names generation 4.
			atomic.StoreUint64(seg.ctrl(0), shmWord(5, true))
			return slotRef{slot: 0, gen: 4, n: 4}
		}, "generation mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, path := startShmServer(t, ShmConfig{SegmentBytes: 1 << 20, SlotBytes: 64 << 10})
			seg := srv.shm.seg
			ref := tc.ref(seg)
			before := make([]uint64, seg.slotCount)
			for i := range before {
				before[i] = atomic.LoadUint64(seg.ctrl(i))
			}
			st, msg := rawSlotPublish(t, "unix", path, ref)
			if st != stErr || !strings.Contains(msg, tc.want) {
				t.Fatalf("answer = %d %q, want a %q error", st, msg, tc.want)
			}
			for i, w := range before {
				if got := atomic.LoadUint64(seg.ctrl(i)); got != w {
					t.Fatalf("slot %d control word %#x -> %#x after a rejected publish", i, w, got)
				}
			}
			checkServing(t, DialUnix(path))
		})
	}
}
