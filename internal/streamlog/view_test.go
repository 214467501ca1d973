package streamlog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// record writes a small ended log: cfgRanks writer ranks, steps 0..n-1.
func record(t *testing.T, dir string, ranks, steps int) {
	t.Helper()
	l := mustLog(t, dir, Options{})
	if err := l.SetConfig(Config{WriterSize: ranks, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		appendStep(t, l, s, ranks)
	}
	if err := l.AppendEnd(steps - 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadStepViewBelowHorizon pins the retention edge of the view
// path: a step below the horizon is ErrEvicted, and the horizon itself
// still serves.
func TestReadStepViewBelowHorizon(t *testing.T) {
	dir := t.TempDir()
	l := mustLog(t, dir, Options{SegmentBytes: 256, RetainSteps: 2})
	if err := l.SetConfig(Config{WriterSize: 1, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		appendStep(t, l, s, 1)
		if err := l.AppendRetire(s); err != nil {
			t.Fatal(err)
		}
	}
	if l.FirstStep() == 0 {
		t.Fatal("retention evicted nothing; test needs a horizon")
	}
	if _, _, _, err := l.ReadStepView(0); !errors.Is(err, ErrEvicted) {
		t.Fatalf("below horizon: got %v, want ErrEvicted", err)
	}
	_, _, release, err := l.ReadStepView(l.FirstStep())
	if err != nil {
		t.Fatalf("horizon step %d: %v", l.FirstStep(), err)
	}
	release()
}

func TestReadOnlyRejectsMutation(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, 1, 2)
	l := mustLog(t, dir, Options{ReadOnly: true})
	if err := l.Append(2, [][]byte{{1}}, [][]byte{{2}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Append: got %v, want ErrReadOnly", err)
	}
	if err := l.SetConfig(Config{WriterSize: 1, QueueDepth: 2}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("SetConfig: got %v, want ErrReadOnly", err)
	}
	if err := l.AppendRetire(0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AppendRetire: got %v, want ErrReadOnly", err)
	}
	if err := l.AppendEnd(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AppendEnd: got %v, want ErrReadOnly", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Sync: got %v, want ErrReadOnly", err)
	}
}

// TestReadOnlyLeavesTornTailOnDisk is the contract that distinguishes a
// replay open from a recovery open: the recorded directory must come
// back byte-for-byte untouched, torn tail included, while the read-only
// view still serves exactly the valid prefix.
func TestReadOnlyLeavesTornTailOnDisk(t *testing.T) {
	dir := t.TempDir()
	l := mustLog(t, dir, Options{})
	if err := l.SetConfig(Config{WriterSize: 1, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	appendStep(t, l, 0, 1)
	appendStep(t, l, 1, 1)
	l.Close()

	segPath := filepath.Join(dir, "00000000.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), data...), 0xde, 0xad, 0xbe) // partial record
	if err := os.WriteFile(segPath, torn, 0o666); err != nil {
		t.Fatal(err)
	}

	ro := mustLog(t, dir, Options{ReadOnly: true})
	if got := ro.NextStep(); got != 2 {
		t.Fatalf("read-only scan indexed %d steps, want 2", got)
	}
	checkStep(t, ro, 0, 1)
	checkStep(t, ro, 1, 1)
	ro.Close()

	after, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(torn) {
		t.Fatalf("read-only open mutated the segment: %d bytes, was %d", len(after), len(torn))
	}
}

func TestReadOnlyOpenMissingDir(t *testing.T) {
	if _, err := OpenLog(filepath.Join(t.TempDir(), "nope"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of a missing directory succeeded (and created it)")
	}
}

// TestViewReleaseIdempotent is the regression test for the release-
// closure leak: a replay that aborts mid-step unwinds through both its
// own cleanup and deferred ones, so release must tolerate double calls
// and the view count must return to zero on every path.
func TestViewReleaseIdempotent(t *testing.T) {
	if !mmapSupported() {
		t.Skip("platform lacks shared file mappings")
	}
	dir := t.TempDir()
	record(t, dir, 1, 3)
	l := mustLog(t, dir, Options{ReadOnly: true})
	_, _, release, err := func() ([][]byte, [][]byte, func(), error) {
		return l.ReadStepView(1)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if got := l.OpenViews(); got != 1 {
		t.Fatalf("OpenViews = %d with one view out, want 1", got)
	}
	release()
	release() // the abort path's second release must be a no-op
	if got := l.OpenViews(); got != 0 {
		t.Fatalf("OpenViews = %d after (double) release, want 0", got)
	}
	// A second view must still work: a broken double-decrement would
	// have corrupted the segment's refcount.
	_, _, rel2, err := l.ReadStepView(2)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if got := l.OpenViews(); got != 0 {
		t.Fatalf("OpenViews = %d after second view released, want 0", got)
	}
}

// TestViewSurvivesEvictionUntilRelease pins the deferred-munmap path:
// the view count stays honest when the segment holding the view is
// evicted before the release fires.
func TestViewSurvivesEvictionUntilRelease(t *testing.T) {
	if !mmapSupported() {
		t.Skip("platform lacks shared file mappings")
	}
	dir := t.TempDir()
	l := mustLog(t, dir, Options{SegmentBytes: 256, RetainSteps: 2})
	if err := l.SetConfig(Config{WriterSize: 1, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	appendStep(t, l, 0, 1)
	appendStep(t, l, 1, 1)
	metas, _, release, err := l.ReadStepView(0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), metas[0]...)
	for s := 2; s < 8; s++ {
		appendStep(t, l, s, 1)
		if err := l.AppendRetire(s - 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := l.ReadStep(0); !errors.Is(err, ErrEvicted) {
		t.Fatal("step 0 still readable; eviction did not happen")
	}
	if got := l.OpenViews(); got != 1 {
		t.Fatalf("OpenViews = %d with an evicted-segment view out, want 1", got)
	}
	if string(metas[0]) != string(want) {
		t.Fatal("view bytes changed under eviction")
	}
	release()
	if got := l.OpenViews(); got != 0 {
		t.Fatalf("OpenViews = %d after releasing evicted view, want 0", got)
	}
}
