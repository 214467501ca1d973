package replay

import (
	"bytes"
	"fmt"

	"repro/internal/streamlog"
)

// ReadTrace loads one recorded stream from a log directory into a
// StreamTrace, copying every blob out of the log's views — the bridge
// between on-disk recordings and the in-memory comparisons BitCompare
// and Compare perform. A truncated recording (no end record) loads
// fine with Ended=false.
func ReadTrace(dir, stream string) (*StreamTrace, error) {
	store, err := streamlog.OpenStore(dir, streamlog.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	return readTrace(store, stream)
}

// ReadTraces loads every stream of a recorded log directory, keyed by
// stream name — a whole recording in the shape Compare consumes, so
// two recordings (a run and its re-run, a clean run and its
// crash-recovered twin) can be diffed without replaying anything.
func ReadTraces(dir string) (map[string]*StreamTrace, error) {
	store, err := streamlog.OpenStore(dir, streamlog.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	out := make(map[string]*StreamTrace, len(store.Streams()))
	for _, name := range store.Streams() {
		tr, err := readTrace(store, name)
		if err != nil {
			return nil, err
		}
		out[name] = tr
	}
	return out, nil
}

func readTrace(store *streamlog.Store, stream string) (*StreamTrace, error) {
	lg, err := store.Log(stream)
	if err != nil {
		return nil, err
	}
	cfg, ok := lg.Config()
	if !ok {
		return nil, fmt.Errorf("replay: stream %q: empty recording (no config journaled)", stream)
	}
	tr := &StreamTrace{
		Stream:     stream,
		WriterSize: cfg.WriterSize,
		QueueDepth: cfg.QueueDepth,
		LastStep:   -1,
	}
	for step, head := lg.FirstStep(), lg.NextStep(); step < head; step++ {
		metas, payloads, release, err := lg.ReadStepView(step)
		if err != nil {
			return nil, fmt.Errorf("replay: stream %q step %d: %w", stream, step, err)
		}
		sb := StepBlobs{Step: step, Metas: make([][]byte, len(metas)), Payloads: make([][]byte, len(payloads))}
		for i := range metas {
			sb.Metas[i] = append([]byte(nil), metas[i]...)
			sb.Payloads[i] = append([]byte(nil), payloads[i]...)
		}
		release()
		tr.Steps = append(tr.Steps, sb)
	}
	// A recording without an end record just stops (crash, kill, or a log
	// still being written): its last step is the last one it holds.
	if last, ended := lg.Ended(); ended {
		tr.Ended, tr.LastStep = true, last
	} else if n := len(tr.Steps); n > 0 {
		tr.LastStep = tr.Steps[n-1].Step
	}
	return tr, nil
}

// BitCompare checks two traces for byte identity: same steps in the
// same order, every rank's metadata and payload blobs bit for bit, and
// the same graceful-end state. It returns ok=true and an empty detail
// when identical, else a description of the first difference. This is
// the strong form of comparison — the replaytest harness uses it to
// prove a replayed component reproduced the live run exactly; Compare
// is the semantic (assembled-array) form.
func BitCompare(a, b *StreamTrace) (detail string, ok bool) {
	if a.WriterSize != b.WriterSize {
		return fmt.Sprintf("writer group size %d vs %d", a.WriterSize, b.WriterSize), false
	}
	if len(a.Steps) != len(b.Steps) {
		return fmt.Sprintf("step count %d vs %d", len(a.Steps), len(b.Steps)), false
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Step != sb.Step {
			return fmt.Sprintf("position %d holds step %d vs %d", i, sa.Step, sb.Step), false
		}
		if len(sa.Metas) != len(sb.Metas) {
			return fmt.Sprintf("step %d rank count %d vs %d", sa.Step, len(sa.Metas), len(sb.Metas)), false
		}
		for r := range sa.Metas {
			if !bytes.Equal(sa.Metas[r], sb.Metas[r]) {
				return fmt.Sprintf("step %d rank %d metadata differs", sa.Step, r), false
			}
			if !bytes.Equal(sa.Payloads[r], sb.Payloads[r]) {
				return fmt.Sprintf("step %d rank %d payload differs", sa.Step, r), false
			}
		}
	}
	if a.Ended != b.Ended {
		return fmt.Sprintf("ended %v vs %v", a.Ended, b.Ended), false
	}
	if a.Ended && a.LastStep != b.LastStep {
		return fmt.Sprintf("last step %d vs %d", a.LastStep, b.LastStep), false
	}
	return "", true
}
