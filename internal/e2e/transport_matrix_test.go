package e2e

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// startBrokerOn launches sbbroker with the given flags and returns the
// bound address it prints (host:port for tcp, socket path for uds).
func startBrokerOn(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("sbbroker printed no address")
	}
	fields := strings.Fields(sc.Text()) // "sbbroker listening on ADDR"
	go func() {
		for sc.Scan() {
		}
	}()
	return fields[len(fields)-1]
}

// haveUnixSockets reports whether this platform can bind AF_UNIX.
func haveUnixSockets(t *testing.T) bool {
	t.Helper()
	dir, err := os.MkdirTemp("", "sbuds")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ln, err := net.Listen("unix", filepath.Join(dir, "probe.sock"))
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// TestTransportMatrixIdenticalHistogram runs the quickstart-shaped
// workflow (deterministically seeded producer → magnitude → histogram)
// once per stream fabric backend and demands a byte-identical final
// histogram file: switching the script's transport directive must
// change where bytes travel, never what arrives.
func TestTransportMatrixIdenticalHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	brokerBin, _, runBin := buildBinaries(t)

	run := func(t *testing.T, transport string) []byte {
		t.Helper()
		dir := t.TempDir()
		histPath := filepath.Join(dir, "radii.txt")
		script := fmt.Sprintf(`
transport %s
aprun -n 2 gromacs pos.fp xyz 600 3 7 &
aprun -n 2 magnitude pos.fp xyz dist.fp radii &
aprun -n 1 histogram dist.fp radii 8 %s &
wait
`, transport, histPath)
		scriptPath := filepath.Join(dir, "wf.sh")
		if err := os.WriteFile(scriptPath, []byte(script), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(runBin, scriptPath)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("sbrun over transport %s failed: %v\n%s", transport, err, out)
		}
		data, err := os.ReadFile(histPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "n=600") {
			t.Fatalf("histogram lost atoms:\n%s", data)
		}
		return data
	}

	want := run(t, "inproc")

	t.Run("tcp", func(t *testing.T) {
		addr := startBrokerOn(t, brokerBin, "-addr", "127.0.0.1:0")
		got := run(t, "tcp "+addr)
		if string(got) != string(want) {
			t.Fatalf("tcp histogram differs from inproc:\n--- tcp ---\n%s\n--- inproc ---\n%s", got, want)
		}
	})
	t.Run("uds", func(t *testing.T) {
		if !haveUnixSockets(t) {
			t.Skip("platform cannot bind AF_UNIX sockets")
		}
		dir, err := os.MkdirTemp("", "sbuds")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		sock := startBrokerOn(t, brokerBin, "-transport", "uds", "-addr", filepath.Join(dir, "b.sock"))
		got := run(t, "uds "+sock)
		if string(got) != string(want) {
			t.Fatalf("uds histogram differs from inproc:\n--- uds ---\n%s\n--- inproc ---\n%s", got, want)
		}
	})
	t.Run("shm", func(t *testing.T) {
		if !haveUnixSockets(t) {
			t.Skip("platform cannot bind AF_UNIX sockets")
		}
		dir, err := os.MkdirTemp("", "sbshm")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		sock := startBrokerOn(t, brokerBin, "-transport", "shm", "-addr", filepath.Join(dir, "b.sock"))
		got := run(t, "shm "+sock)
		if string(got) != string(want) {
			t.Fatalf("shm histogram differs from inproc:\n--- shm ---\n%s\n--- inproc ---\n%s", got, want)
		}
	})
	// auto against a broker whose socket path lives on the filesystem
	// must resolve every edge to shm: same bytes as every other fabric,
	// with the per-edge resolution left entirely to the plan layer.
	t.Run("auto", func(t *testing.T) {
		if !haveUnixSockets(t) {
			t.Skip("platform cannot bind AF_UNIX sockets")
		}
		dir, err := os.MkdirTemp("", "sbshm")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		sock := startBrokerOn(t, brokerBin, "-transport", "shm", "-addr", filepath.Join(dir, "b.sock"))
		got := run(t, "auto "+sock)
		if string(got) != string(want) {
			t.Fatalf("auto histogram differs from inproc:\n--- auto ---\n%s\n--- inproc ---\n%s", got, want)
		}
	})
}
