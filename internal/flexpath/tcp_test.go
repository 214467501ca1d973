package flexpath

import (
	"context"
	"errors"
	"testing"
)

// The generic transport contract (exchange, gating, backpressure,
// lifecycle, crash/detach semantics) is proven for this backend by the
// conformance registration in conformance_test.go. What remains here is
// TCP-specific: behavior of the socket layer itself that the contract
// cannot express.

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(NewBroker(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := Dial(srv.Addr())
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func TestTCPWriterDisconnectEndsStream(t *testing.T) {
	// A writer whose process dies (connection drop without a clean Close
	// or Detach) is a crash: already-published steps stay readable, but
	// blocked readers get ErrWriterLost rather than hanging — or rather
	// than a misleading EOF that would pass truncated output off as
	// complete.
	srv, client := startServer(t)
	ctx := ctxT(t)
	w, err := client.AttachWriter("dc.fp", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 0, nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Sever the writer's connection abruptly.
	w.(*RemoteWriter).conn.Close()
	client2 := Dial(srv.Addr())
	defer client2.Close()
	r, err := client2.AttachReader("dc.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatalf("published step lost after writer crash: %v", err)
	}
	if _, err := r.StepMeta(ctx, 1); !errors.Is(err, ErrWriterLost) {
		t.Fatalf("StepMeta(1) = %v, want ErrWriterLost after writer crash", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	client := Dial("127.0.0.1:1") // nothing listens there
	if _, err := client.AttachReader("x.fp", 0, 1); err == nil {
		t.Fatal("attach to dead server succeeded")
	}
}

func TestTCPServerClose(t *testing.T) {
	srv, client := startServer(t)
	w, err := client.AttachWriter("sc.fp", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := w.PublishBlock(context.Background(), 0, nil, nil); err == nil {
		t.Fatal("publish after server close succeeded")
	}
}
