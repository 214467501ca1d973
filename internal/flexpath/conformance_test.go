package flexpath_test

import (
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flexpath"
	"repro/internal/flexpath/conformance"
)

// Each backend is one registration call against the shared contract
// suite; everything these tests prove is defined once in
// internal/flexpath/conformance. Backend-specific behavior that the
// contract cannot express (heartbeat leases, unclean-disconnect
// inference, checksum rejection, dial backoff) stays in the
// backend-local test files.

func TestConformanceInproc(t *testing.T) {
	conformance.Run(t, func(t *testing.T) conformance.Backend {
		b := flexpath.NewBroker()
		return conformance.Backend{Transport: flexpath.InProc{B: b}, Broker: b}
	})
}

func TestConformanceTCP(t *testing.T) {
	conformance.Run(t, func(t *testing.T) conformance.Backend {
		b := flexpath.NewBroker()
		srv, err := flexpath.NewServer(b, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c := flexpath.Dial(srv.Addr())
		t.Cleanup(func() { c.Close() })
		return conformance.Backend{Transport: c, Broker: b}
	})
}

func TestConformanceUDS(t *testing.T) {
	requireUnixSockets(t)
	conformance.Run(t, func(t *testing.T) conformance.Backend {
		b := flexpath.NewBroker()
		path := udsPath(t)
		srv, err := flexpath.NewUnixServer(b, path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c := flexpath.DialUnix(path)
		t.Cleanup(func() { c.Close() })
		return conformance.Backend{Transport: c, Broker: b}
	})
}

func TestConformanceShm(t *testing.T) {
	requireUnixSockets(t)
	requireShm(t)
	conformance.Run(t, func(t *testing.T) conformance.Backend {
		sbe, cleanup, err := makeShmBackend(flexpath.ShmConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cleanup)
		sbe.MakeShm = func(cfg flexpath.ShmConfig) (conformance.Backend, func(), error) {
			return makeShmBackend(cfg)
		}
		return sbe
	})
}

// makeShmBackend builds an isolated broker + shm doorbell server pair
// with its own segment file, so shm-specific checks can pick ring
// geometry without disturbing the suite-wide backend.
func makeShmBackend(cfg flexpath.ShmConfig) (conformance.Backend, func(), error) {
	dir, err := os.MkdirTemp("", "sbshm")
	if err != nil {
		return conformance.Backend{}, nil, err
	}
	b := flexpath.NewBroker()
	srv, err := flexpath.NewShmServer(b, filepath.Join(dir, "b.sock"), cfg)
	if err != nil {
		os.RemoveAll(dir)
		return conformance.Backend{}, nil, err
	}
	tr := flexpath.DialUnix(filepath.Join(dir, "b.sock"))
	cleanup := func() {
		tr.Close()
		srv.Close()
		os.RemoveAll(dir)
	}
	return conformance.Backend{Transport: tr, Broker: b}, cleanup, nil
}

// requireShm skips on platforms where the shm transport's shared file
// mapping is unavailable, probed by standing up a real segment.
func requireShm(t *testing.T) {
	t.Helper()
	dir, err := os.MkdirTemp("", "sbshm")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	srv, err := flexpath.NewShmServer(flexpath.NewBroker(), filepath.Join(dir, "probe.sock"), flexpath.ShmConfig{})
	if err != nil {
		t.Skipf("platform without shm segment support: %v", err)
	}
	srv.Close()
}

// udsPath returns a socket path short enough for the AF_UNIX sun_path
// limit (~104 bytes). t.TempDir embeds the full subtest name and can
// blow past it, so a dedicated short-prefix temp dir is used instead.
func udsPath(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "sbuds")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return filepath.Join(dir, "b.sock")
}

// requireUnixSockets skips on platforms without AF_UNIX support, probed
// directly rather than inferred from GOOS.
func requireUnixSockets(t *testing.T) {
	t.Helper()
	dir, err := os.MkdirTemp("", "sbuds")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ln, err := net.Listen("unix", filepath.Join(dir, "probe.sock"))
	if err != nil {
		t.Skipf("platform without AF_UNIX support: %v", err)
	}
	ln.Close()
}
