package e2e

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildReplayBin compiles sbreplay once per test.
func buildReplayBin(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "sbreplay")
	cmd := exec.Command("go", "build", "-o", out, "repro/cmd/sbreplay")
	cmd.Dir = repoRoot(t)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sbreplay: %v\n%s", err, msg)
	}
	return out
}

// runBrokerRecording launches sbbroker with a log directory, calls fn
// with the bound address, then SIGTERMs the broker and waits for it to
// exit — guaranteeing the recording on disk is complete (flushed, end
// records journaled) before returning. The harness's startBrokerOn
// cleanup kills brokers outright, which is exactly what a replay test
// must not do to its recording.
func runBrokerRecording(t *testing.T, bin, logDir string, brokerArgs []string, fn func(addr string)) {
	t.Helper()
	cmd := exec.Command(bin, append(brokerArgs, "-log-dir", logDir)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	t.Cleanup(func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	buf := make([]byte, 256)
	n, err := stdout.Read(buf)
	if err != nil {
		t.Fatalf("sbbroker printed nothing: %v", err)
	}
	line := string(buf[:n])
	fields := strings.Fields(strings.SplitN(line, "\n", 2)[0])
	if len(fields) == 0 {
		t.Fatalf("sbbroker banner %q", line)
	}
	addr := fields[len(fields)-1]
	go func() {
		for {
			if _, err := stdout.Read(buf); err != nil {
				return
			}
		}
	}()

	fn(addr)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
		killed = true
	case <-time.After(30 * time.Second):
		t.Fatal("sbbroker did not exit after SIGTERM")
	}
}

// TestReplayGoldenAcrossTransports is the offline re-analysis golden
// test: run the crack-shaped LAMMPS workflow live once per stream
// fabric backend with a durable log attached, then re-run the
// histogram component offline with sbreplay against each recording.
// Every replayed histogram must be byte-identical to its live run's —
// and since the live runs agree across transports, all four replays
// agree with each other: the recording, not the fabric, defines the
// data.
func TestReplayGoldenAcrossTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	brokerBin, _, runBin := buildBinaries(t)
	replayBin := buildReplayBin(t)

	// liveRun executes the workflow under the given script directives
	// with its histogram written to histPath.
	liveRun := func(t *testing.T, dir, histPath, directives string) {
		t.Helper()
		script := fmt.Sprintf(`%s
aprun -n 1 histogram m.fp mag 8 %s &
aprun -n 2 magnitude dump.fp atoms m.fp mag &
aprun -n 2 lammps dump.fp atoms 64 3 &
wait
`, directives, histPath)
		scriptPath := filepath.Join(dir, "wf.sh")
		if err := os.WriteFile(scriptPath, []byte(script), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(runBin, scriptPath)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("sbrun under %q failed: %v\n%s", directives, err, out)
		}
	}

	// replayHistogram re-runs the histogram component offline against
	// the recording and returns the bytes it wrote.
	replayHistogram := func(t *testing.T, dir, logDir string) []byte {
		t.Helper()
		replayHist := filepath.Join(dir, "replay_hist.txt")
		scriptPath := filepath.Join(dir, "wf.sh") // written by liveRun
		cmd := exec.Command(replayBin,
			"-log-dir", logDir,
			"-stage", "histogram",
			"-args", fmt.Sprintf("m.fp mag 8 %s", replayHist),
			scriptPath)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("sbreplay failed: %v\n%s", err, out)
		}
		data, err := os.ReadFile(replayHist)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// one runs the full record-then-replay round trip for one backend
	// and returns (live histogram bytes, replayed histogram bytes).
	type result struct{ live, replayed []byte }
	results := map[string]result{}

	t.Run("inproc", func(t *testing.T) {
		dir := t.TempDir()
		hist := filepath.Join(dir, "hist.txt")
		logDir := filepath.Join(dir, "rec")
		liveRun(t, dir, hist, "transport inproc\nlog "+logDir)
		live, err := os.ReadFile(hist)
		if err != nil {
			t.Fatal(err)
		}
		results["inproc"] = result{live, replayHistogram(t, dir, logDir)}
	})
	t.Run("tcp", func(t *testing.T) {
		dir := t.TempDir()
		hist := filepath.Join(dir, "hist.txt")
		logDir := filepath.Join(dir, "rec")
		runBrokerRecording(t, brokerBin, logDir, []string{"-addr", "127.0.0.1:0"}, func(addr string) {
			liveRun(t, dir, hist, "transport tcp "+addr)
		})
		live, err := os.ReadFile(hist)
		if err != nil {
			t.Fatal(err)
		}
		results["tcp"] = result{live, replayHistogram(t, dir, logDir)}
	})
	t.Run("uds", func(t *testing.T) {
		if !haveUnixSockets(t) {
			t.Skip("platform cannot bind AF_UNIX sockets")
		}
		dir := t.TempDir()
		hist := filepath.Join(dir, "hist.txt")
		logDir := filepath.Join(dir, "rec")
		sockDir, err := os.MkdirTemp("", "sbuds")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(sockDir) })
		runBrokerRecording(t, brokerBin, logDir,
			[]string{"-transport", "uds", "-addr", filepath.Join(sockDir, "b.sock")}, func(addr string) {
				liveRun(t, dir, hist, "transport uds "+addr)
			})
		live, err := os.ReadFile(hist)
		if err != nil {
			t.Fatal(err)
		}
		results["uds"] = result{live, replayHistogram(t, dir, logDir)}
	})
	t.Run("shm", func(t *testing.T) {
		if !haveUnixSockets(t) {
			t.Skip("platform cannot bind AF_UNIX sockets")
		}
		dir := t.TempDir()
		hist := filepath.Join(dir, "hist.txt")
		logDir := filepath.Join(dir, "rec")
		sockDir, err := os.MkdirTemp("", "sbshm")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(sockDir) })
		runBrokerRecording(t, brokerBin, logDir,
			[]string{"-transport", "shm", "-addr", filepath.Join(sockDir, "b.sock")}, func(addr string) {
				liveRun(t, dir, hist, "transport shm "+addr)
			})
		live, err := os.ReadFile(hist)
		if err != nil {
			t.Fatal(err)
		}
		results["shm"] = result{live, replayHistogram(t, dir, logDir)}
	})

	// Every backend's replay must equal its own live run, and all
	// replays must agree with each other.
	var ref []byte
	for kind, r := range results {
		if len(r.live) == 0 {
			t.Fatalf("%s: empty live histogram", kind)
		}
		if string(r.live) != string(r.replayed) {
			t.Errorf("%s: offline replay differs from live run\n--- live ---\n%s\n--- replay ---\n%s",
				kind, r.live, r.replayed)
		}
		if ref == nil {
			ref = r.replayed
		} else if string(ref) != string(r.replayed) {
			t.Errorf("%s: replay bytes differ from other transports", kind)
		}
	}
}
