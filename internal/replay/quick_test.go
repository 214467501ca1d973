package replay_test

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/replay"
	"repro/internal/replay/replaytest"
)

// TestReplayDeterminismQuick is the determinism property from the
// replaying the same component over the same recording under any
// GOMAXPROCS, which sets how many shards a kernel splits into, produces
// bit-identical output. The recording is made once; the property
// re-replays under randomized GOMAXPROCS and bit-compares every capture
// against the first.
func TestReplayDeterminismQuick(t *testing.T) {
	dir := recordCrack(t)
	mag := crackStages()[1]

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	baseline := replaytest.Replay(t, dir, mag).Captures["m.fp"]
	if baseline == nil {
		t.Fatal("baseline capture missing")
	}

	property := func(procs uint8) bool {
		runtime.GOMAXPROCS(int(procs%8) + 1)
		got := replaytest.Replay(t, dir, mag).Captures["m.fp"]
		detail, ok := replay.BitCompare(baseline, got)
		if !ok {
			t.Logf("procs=%d: %s", procs%8+1, detail)
		}
		return ok
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
