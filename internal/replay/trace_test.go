package replay_test

import (
	"bytes"
	"testing"

	"repro/internal/replay"
	"repro/internal/streamlog"
)

// recordTrace journals steps 0..steps-1 of a two-rank stream "s.fp"
// into a store at dir, with an end record when ended is set.
func recordTrace(t *testing.T, dir string, steps int, ended bool) {
	t.Helper()
	store, err := streamlog.OpenStore(dir, streamlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lg, err := store.Log("s.fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.SetConfig(streamlog.Config{WriterSize: 2, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := lg.Append(s, [][]byte{{byte(s), 0}, {byte(s), 1}},
			[][]byte{{byte(s), 10}, {byte(s), 11}}); err != nil {
			t.Fatal(err)
		}
	}
	if ended {
		if err := lg.AppendEnd(steps - 1); err != nil {
			t.Fatal(err)
		}
	}
}

// checkTrace reads s.fp back and checks every step's blobs, the
// graceful-end state and the last step.
func checkTrace(t *testing.T, dir string, steps int, ended bool) {
	t.Helper()
	tr, err := replay.ReadTrace(dir, "s.fp")
	if err != nil {
		t.Fatal(err)
	}
	if tr.WriterSize != 2 || len(tr.Steps) != steps {
		t.Fatalf("writers=%d steps=%d, want 2 and %d", tr.WriterSize, len(tr.Steps), steps)
	}
	for i, sb := range tr.Steps {
		if sb.Step != i || len(sb.Metas) != 2 || len(sb.Payloads) != 2 {
			t.Fatalf("position %d: step %d with %d/%d blobs", i, sb.Step, len(sb.Metas), len(sb.Payloads))
		}
		if !bytes.Equal(sb.Metas[1], []byte{byte(i), 1}) || !bytes.Equal(sb.Payloads[1], []byte{byte(i), 11}) {
			t.Fatalf("step %d rank 1: blobs differ", i)
		}
	}
	if tr.Ended != ended || tr.LastStep != steps-1 {
		t.Fatalf("Ended=%v LastStep=%d, want %v and %d", tr.Ended, tr.LastStep, ended, steps-1)
	}
}

func TestReadTraceEndedLog(t *testing.T) {
	dir := t.TempDir()
	recordTrace(t, dir, 5, true)
	checkTrace(t, dir, 5, true)
}

// TestReadTraceTruncatedLog: a recording with no end record just stops;
// it loads with Ended=false and its last recorded step.
func TestReadTraceTruncatedLog(t *testing.T) {
	dir := t.TempDir()
	recordTrace(t, dir, 2, false)
	checkTrace(t, dir, 2, false)
}
