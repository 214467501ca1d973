package flexpath

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func resizeCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// publishSteps publishes steps [from, to) from every rank of a writer
// group, skipping the given rank on the final step so it stays partial.
func publishSteps(t *testing.T, ctx context.Context, ws []*Writer, from, to, skipRankOnLast int) {
	t.Helper()
	for step := from; step < to; step++ {
		for rank, w := range ws {
			if step == to-1 && rank == skipRankOnLast {
				continue
			}
			meta := []byte(fmt.Sprintf("m%d.%d", step, rank))
			if err := w.PublishBlock(ctx, step, meta, []byte{byte(step), byte(rank)}); err != nil {
				t.Fatalf("publish step %d rank %d: %v", step, rank, err)
			}
		}
	}
}

// TestResizeWritersDropsPartialSteps: a 2-rank writer group publishes
// step 0 completely and step 1 partially, detaches, and resizes to 3
// ranks. The partial step must be dropped and the new group resume at
// the boundary; the complete step must stay readable with its original
// two blocks.
func TestResizeWritersDropsPartialSteps(t *testing.T) {
	ctx := resizeCtx(t)
	b := NewBroker()
	var ws []*Writer
	for rank := 0; rank < 2; rank++ {
		w, err := b.AttachWriter("s.fp", rank, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	publishSteps(t, ctx, ws, 0, 2, 1) // step 0 complete, step 1 missing rank 1

	if err := b.ResizeGroups("s.fp", 3, 0); err == nil {
		t.Fatal("resize with live writers must fail")
	}
	for _, w := range ws {
		if err := w.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.ResizeGroups("s.fp", 3, 0); err != nil {
		t.Fatal(err)
	}

	// New group resumes at the boundary (step 1, the dropped partial).
	var nws []*Writer
	for rank := 0; rank < 3; rank++ {
		w, err := b.AttachWriter("s.fp", rank, 3, 4)
		if err != nil {
			t.Fatalf("re-attach rank %d at new size: %v", rank, err)
		}
		if got := w.NextStep(); got != 1 {
			t.Fatalf("rank %d NextStep = %d, want 1", rank, got)
		}
		nws = append(nws, w)
	}
	publishSteps(t, ctx, nws, 1, 2, -1)

	r, err := b.AttachReader("s.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Step 0 keeps its pre-resize shape: two blocks.
	metas, err := r.StepMeta(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || string(metas[0]) != "m0.0" {
		t.Fatalf("step 0 metas = %q, want pre-resize pair", metas)
	}
	// Step 1 was republished by the 3-rank group.
	metas, err = r.StepMeta(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("step 1 has %d blocks, want 3", len(metas))
	}
	if _, err := r.FetchBlock(ctx, 1, 2); err != nil {
		t.Fatalf("fetch new rank 2 block: %v", err)
	}
	if _, err := r.FetchBlock(ctx, 1, 3); err == nil {
		t.Fatal("fetch beyond step's group size must fail")
	}
}

// TestResizeReadersResumesAndRetires: a reader group that released some
// steps detaches and is resized; the new group must resume at the old
// collective NextStep, and the steps the old group fully consumed must
// still retire (not wedge behind release bookkeeping of ranks that no
// longer exist).
func TestResizeReadersResumesAndRetires(t *testing.T) {
	ctx := resizeCtx(t)
	b := NewBroker()
	w, err := b.AttachWriter("s.fp", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	publishSteps(t, ctx, []*Writer{w}, 0, 4, -1)

	var rs []*Reader
	for rank := 0; rank < 2; rank++ {
		r, err := b.AttachReader("s.fp", rank, 2)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	// Both ranks release steps 0-1; rank 0 additionally releases step 2.
	for step := 0; step < 2; step++ {
		for _, r := range rs {
			if err := r.ReleaseStep(step); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rs[0].ReleaseStep(2); err != nil {
		t.Fatal(err)
	}

	if err := b.ResizeGroups("s.fp", 0, 3); err == nil {
		t.Fatal("resize with live readers must fail")
	}
	for _, r := range rs {
		if err := r.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.ResizeGroups("s.fp", 0, 3); err != nil {
		t.Fatal(err)
	}

	var nrs []*Reader
	for rank := 0; rank < 3; rank++ {
		r, err := b.AttachReader("s.fp", rank, 3)
		if err != nil {
			t.Fatalf("re-attach reader rank %d: %v", rank, err)
		}
		// Collective resume point: min(3, 2, 2) = 2.
		if got := r.NextStep(); got != 2 {
			t.Fatalf("rank %d NextStep = %d, want 2", rank, got)
		}
		nrs = append(nrs, r)
	}
	// The fully consumed steps retired at resize time.
	b.mu.Lock()
	minStep := b.streams["s.fp"].minStep
	b.mu.Unlock()
	if minStep != 2 {
		t.Fatalf("minStep after resize = %d, want 2 (steps 0-1 retired)", minStep)
	}
	// Step 2 is re-read by the full new group (idempotent re-release),
	// then retires normally.
	for _, r := range nrs {
		if _, err := r.StepMeta(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if err := r.ReleaseStep(2); err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	minStep = b.streams["s.fp"].minStep
	b.mu.Unlock()
	if minStep != 3 {
		t.Fatalf("minStep after re-release = %d, want 3", minStep)
	}
}

func TestResizePreDeclares(t *testing.T) {
	b := NewBroker()
	// Attaching a reader creates the stream with no writer group.
	r, err := b.AttachReader("s.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := b.ResizeGroups("s.fp", 2, 0); err != nil {
		t.Fatal(err)
	}
	// The pre-declared size now binds the first attach.
	if _, err := b.AttachWriter("s.fp", 0, 4, 4); err == nil {
		t.Fatal("attach at conflicting size must fail after pre-declaration")
	}
	if _, err := b.AttachWriter("s.fp", 0, 2, 4); err != nil {
		t.Fatal(err)
	}
}

func TestResizeErrors(t *testing.T) {
	b := NewBroker()
	if err := b.ResizeGroups("nope.fp", 2, 0); err == nil {
		t.Fatal("resize of unknown stream must fail")
	}
	if _, err := b.AttachReader("s.fp", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.ResizeGroups("s.fp", -1, 0); err == nil {
		t.Fatal("negative size must fail")
	}
	// Same-size resize of a live group is a no-op, not an error.
	if err := b.ResizeGroups("s.fp", 0, 1); err != nil {
		t.Fatalf("same-size resize: %v", err)
	}

	w, err := b.AttachWriter("closed.fp", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.ResizeGroups("closed.fp", 2, 0); err == nil {
		t.Fatal("resize of an ended stream must fail")
	}
}

func TestResizeGroupsHelper(t *testing.T) {
	b := NewBroker()
	if _, err := b.AttachReader("s.fp", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ResizeGroups(InProc{B: b}, "s.fp", 2, 0); err != nil {
		t.Fatal(err)
	}
	router := Router{Default: InProc{B: b}}
	if err := ResizeGroups(router, "s.fp", 3, 0); err != nil {
		t.Fatal(err)
	}
	// A socket-backed transport lacks the capability.
	if err := ResizeGroups(Dial("127.0.0.1:1"), "s.fp", 2, 0); err == nil {
		t.Fatal("a socket Client must refuse group resizing")
	}
}
