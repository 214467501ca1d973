package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// runtimeSnap is a reading of the Go runtime's cumulative allocation
// and collection counters. Readings come from runtime/metrics, which
// reports the same totals as runtime.MemStats (TotalAlloc, Mallocs)
// without stopping the world — the sink takes one in the middle of a
// run, where a stop-the-world pause would disturb the steps it times.
type runtimeSnap struct {
	allocBytes   uint64
	allocObjects uint64
	gcPause      time.Duration
	numGC        int64
}

func readRuntime() runtimeSnap {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return runtimeSnap{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcPause:      gc.PauseTotal,
		numGC:        gc.NumGC,
	}
}

// provenance says what was measured, where. It is printed before any
// result so a number can always be traced to a commit and a host.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	TempDir    string `json:"temp_dir"`
	TempFS     string `json:"temp_fs"`
}

// gitState reports the commit of the tree the benchmark runs in and
// whether it has uncommitted changes. Only a .git entry directly in
// root counts: the benchmark also runs in exported checkouts that are
// not repositories (reported as "unknown"), and those may sit inside
// some unrelated repository further up.
func gitState(root string) (commit string, dirty bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", false
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	commit = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return commit, err == nil && len(strings.TrimSpace(string(st))) > 0
}

// repoRoot finds the directory holding BENCHMARK.json, starting at the
// working directory and its parent (the benchmark runs from either the
// repository root or its own directory).
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return wd
}

// fsTypeOf names the filesystem holding dir, from the mount table: the
// longest mount point that is a prefix of dir wins. "unknown" where
// there is no /proc/mounts.
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if mp != "/" && abs != mp && !strings.HasPrefix(abs, mp+"/") {
			continue
		}
		if len(mp) >= len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// settleGoroutines waits briefly for goroutines started by a finished
// workload to exit and returns how many more are alive than before it.
func settleGoroutines(before int) int {
	deadline := time.Now().Add(500 * time.Millisecond)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}
