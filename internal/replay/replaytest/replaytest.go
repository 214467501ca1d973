// Package replaytest is the reusable record-then-replay harness: run a
// tiny workflow live with a durable log attached, replay a component
// offline against the recording, and assert the replay reproduced the
// live run bit for bit. Both the replay package's own tests and the
// end-to-end suite build on it, so "replayable" stays one definition.
package replaytest

import (
	"context"
	"testing"
	"time"

	"repro/internal/flexpath"
	"repro/internal/replay"
	"repro/internal/streamlog"
	"repro/internal/workflow"
)

// Ctx returns a context that fails the test late enough to matter.
func Ctx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// Record runs spec live over an in-process broker with a durable log
// rooted at dir, flushes the log, and shuts everything down so dir
// holds a complete recording of every stream the workflow carried.
// The live run's result is returned for output assertions.
func Record(t *testing.T, spec workflow.Spec, dir string) *workflow.Result {
	t.Helper()
	ctx := Ctx(t)
	store, err := streamlog.OpenStore(dir, streamlog.Options{})
	if err != nil {
		t.Fatalf("replaytest: opening recording store: %v", err)
	}
	b := flexpath.NewBroker()
	b.AttachLog(store)
	res, err := workflow.Run(ctx, flexpath.InProc{B: b}, spec, workflow.Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("replaytest: live run: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("replaytest: live run component: %v", err)
	}
	if err := b.FlushLog(ctx); err != nil {
		t.Fatalf("replaytest: flushing log: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("replaytest: closing store: %v", err)
	}
	return res
}

// Replay re-runs one stage offline against the recording in dir and
// returns the capture.
func Replay(t *testing.T, dir string, stage workflow.Stage) *replay.RunResult {
	t.Helper()
	res, err := replay.Run(Ctx(t), replay.Config{LogDir: dir, Logf: t.Logf}, stage)
	if err != nil {
		t.Fatalf("replaytest: replaying %s: %v", stage.Component, err)
	}
	return res
}

// AssertBitIdentical proves a replayed capture reproduced the recorded
// stream exactly: the recording in dir holds the live run's bytes for
// stream, and the capture must match them bit for bit.
func AssertBitIdentical(t *testing.T, dir string, capture *replay.StreamTrace, stream string) {
	t.Helper()
	if capture == nil {
		t.Fatalf("replaytest: stream %q was not captured", stream)
	}
	live, err := replay.ReadTrace(dir, stream)
	if err != nil {
		t.Fatalf("replaytest: reading live trace of %q: %v", stream, err)
	}
	if detail, ok := replay.BitCompare(live, capture); !ok {
		t.Fatalf("replaytest: replay of %q is not bit-identical to the live run: %s", stream, detail)
	}
}
