package streamlog

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
)

// fullDiskChild reports whether this test binary is the child that
// runFullDisk started: its trailing arguments are "fsize-child", the
// log directory and a byte limit. The child caps its own file size at
// that limit (RLIMIT_FSIZE, this process only). Go ignores SIGXFSZ, so
// a write crossing the limit fails with EFBIG instead of killing it.
func fullDiskChild(t *testing.T) (dir string, ok bool) {
	args := flag.Args()
	if len(args) != 3 || args[0] != "fsize-child" {
		return "", false
	}
	limit, err := strconv.ParseUint(args[2], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: limit}); err != nil {
		t.Fatal(err)
	}
	return args[1], true
}

// runFullDisk re-runs test in a child process whose files may grow to
// at most limit bytes, and fails if the child does.
func runFullDisk(t *testing.T, test, dir string, limit int64) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$", "-test.count=1",
		"fsize-child", dir, strconv.FormatInt(limit, 10))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child under a %d-byte file limit: %v\n%s", limit, err, out)
	}
}

// TestAppendFullDisk fills the disk in the middle of a payload: in a
// child whose file-size limit falls inside the next step record, Append
// returns EFBIG and leaves NextStep, the index and the segment's size as
// they were, with the torn record on disk past the segment's end. A
// writable reopen without the limit heals the tail and serves every
// earlier step bit-identically, then appends the lost step.
func TestAppendFullDisk(t *testing.T) {
	const ranks, steps, paySize = 2, 4, 8 << 10
	meta := func(s, r int) []byte { return blob(s, r, 13+r) }
	pay := func(s, r int) []byte { return blob(s, r+5, paySize) }
	appendAt := func(l *Log, s int) error {
		return l.Append(s, [][]byte{meta(s, 0), meta(s, 1)}, [][]byte{pay(s, 0), pay(s, 1)})
	}

	if dir, ok := fullDiskChild(t); ok {
		l := mustLog(t, dir, Options{})
		size, total := l.activeSegment().size, l.Bytes()
		err := appendAt(l, steps)
		if !errors.Is(err, syscall.EFBIG) {
			t.Fatalf("Append across the file-size limit: %v, want EFBIG", err)
		}
		if got := l.NextStep(); got != steps {
			t.Fatalf("NextStep = %d after a failed append, want %d", got, steps)
		}
		if _, ok := l.index[steps]; ok || len(l.index) != steps {
			t.Fatalf("failed append indexed: %d steps", len(l.index))
		}
		if seg := l.activeSegment(); seg.size != size || l.Bytes() != total {
			t.Fatalf("segment size %d, log bytes %d after a failed append, want %d, %d", seg.size, l.Bytes(), size, total)
		}
		if info, err := os.Stat(segPath(dir, 0)); err != nil || info.Size() <= size {
			t.Fatalf("no torn record past the segment's end (err %v)", err)
		}
		return
	}

	dir := t.TempDir()
	l := mustLog(t, dir, Options{})
	if err := l.SetConfig(Config{WriterSize: ranks, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := appendAt(l, s); err != nil {
			t.Fatal(err)
		}
	}
	size := l.Bytes()
	clean, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The limit lands halfway into rank 0's payload of the next record.
	runFullDisk(t, "TestAppendFullDisk", dir, size+paySize/2)

	l = mustLog(t, dir, Options{})
	if got := l.NextStep(); got != steps {
		t.Fatalf("reopened NextStep = %d, want %d", got, steps)
	}
	if healed, err := os.ReadFile(segPath(dir, 0)); err != nil || !bytes.Equal(healed, clean) {
		t.Fatalf("reopen did not heal the segment back to its %d clean bytes (err %v)", len(clean), err)
	}
	for s := 0; s < steps; s++ {
		metas, payloads, err := l.ReadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ranks; r++ {
			if !bytes.Equal(metas[r], meta(s, r)) || !bytes.Equal(payloads[r], pay(s, r)) {
				t.Fatalf("step %d rank %d differs after the heal", s, r)
			}
		}
	}
	if err := appendAt(l, steps); err != nil {
		t.Fatalf("append after the heal: %v", err)
	}
	if _, payloads, err := l.ReadStep(steps); err != nil || !bytes.Equal(payloads[1], pay(steps, 1)) {
		t.Fatalf("step %d after the heal: %v", steps, err)
	}
}
