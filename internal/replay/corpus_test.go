package replay_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/replay"
	"repro/internal/replay/replaytest"
	"repro/internal/workflow"
)

// The regression corpus: a checked-in golden recording of the paper's
// crack-detection workflow (lammps → magnitude → histogram), replayed
// against the CURRENT kernels on every `make corpus` run. A kernel
// change that alters the numerics — intentionally or not — shows up as
// a tol-0 divergence against the golden streams before it merges.
//
// The recording is also the checked-in fixture for the original
// stream-log step record (v1, unpadded payloads), kept on purpose: the
// log now writes only padded v2 step records but must still read v1, and
// `make corpus` proves v1 recordings replay bit-identically. -update
// re-records in v2 and so retires that fixture; reach for it only for a
// numerics change, never to refresh the format.
//
// Regenerate deliberately (after an intentional numerics change) with:
//
//	go test ./internal/replay -run TestCorpusGolden -update
//
// The recording is platform-stable in practice (pure-Go IEEE float64
// kernels), but compilers may fuse multiply-adds on some
// architectures; the corpus is pinned to the CI platform and -update
// is the escape hatch elsewhere.
var updateCorpus = flag.Bool("update", false, "re-record the golden corpus under testdata/corpus")

const (
	corpusRecording = "testdata/corpus/crack"
	corpusHistGold  = "testdata/corpus/hist.golden"
)

// corpusStages is the corpus workflow — the crack pipeline at a size
// that keeps the checked-in recording small while exercising
// multi-rank partitioning (histPath empty disables file output).
func corpusStages(histPath string) []workflow.Stage {
	histArgs := []string{"m.fp", "mag", "8"}
	if histPath != "" {
		histArgs = append(histArgs, histPath)
	}
	return []workflow.Stage{
		{Component: "lammps", Args: []string{"dump.fp", "atoms", "64", "3"}, Procs: 2},
		{Component: "magnitude", Args: []string{"dump.fp", "atoms", "m.fp", "mag"}, Procs: 2},
		{Component: "histogram", Args: histArgs, Procs: 1},
	}
}

// TestCorpusGolden is the corpus gate. With -update it re-records the
// golden run; otherwise it replays the magnitude and histogram stages
// of the checked-in recording against HEAD kernels and demands
// bit-identical outputs (tol 0 streams, byte-equal histogram text).
func TestCorpusGolden(t *testing.T) {
	if *updateCorpus {
		if err := os.RemoveAll(corpusRecording); err != nil {
			t.Fatal(err)
		}
		replaytest.Record(t, workflow.Spec{Name: "corpus", Stages: corpusStages(corpusHistGold)}, corpusRecording)
		t.Logf("corpus re-recorded under %s", corpusRecording)
		return
	}
	if _, err := os.Stat(corpusRecording); err != nil {
		t.Fatalf("golden corpus missing (regenerate with -update): %v", err)
	}

	// The magnitude kernel, replayed over the golden lammps dump, must
	// reproduce the golden m.fp stream bit for bit.
	res := replaytest.Replay(t, corpusRecording, corpusStages("")[1])
	if len(res.Truncated) != 0 {
		t.Fatalf("golden recording is truncated: %v", res.Truncated)
	}
	replaytest.AssertBitIdentical(t, corpusRecording, res.Captures["m.fp"], "m.fp")
	golden, err := replay.ReadTrace(corpusRecording, "m.fp")
	if err != nil {
		t.Fatal(err)
	}
	rep := replay.Compare(nil, 0,
		map[string]*replay.StreamTrace{"m.fp": res.Captures["m.fp"]},
		map[string]*replay.StreamTrace{"m.fp": golden})
	if rep.Divergent() {
		t.Fatalf("HEAD magnitude kernel diverged from the golden corpus:\n%s", rep.Render())
	}
	if rep.Values == 0 {
		t.Fatal("corpus comparison compared no values")
	}

	// The histogram kernel, replayed over the golden m.fp stream, must
	// reproduce the golden text output byte for byte.
	histPath := filepath.Join(t.TempDir(), "hist.txt")
	stage := corpusStages(histPath)[2]
	replaytest.Replay(t, corpusRecording, stage)
	got, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(corpusHistGold)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("HEAD histogram kernel diverged from the golden corpus output:\n got:\n%s\nwant:\n%s", got, want)
	}
}
