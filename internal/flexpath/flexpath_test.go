package flexpath

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestAttachValidation(t *testing.T) {
	b := NewBroker()
	if _, err := b.AttachWriter("s", -1, 2, 0); err == nil {
		t.Error("negative writer rank accepted")
	}
	if _, err := b.AttachWriter("s", 2, 2, 0); err == nil {
		t.Error("writer rank >= size accepted")
	}
	if _, err := b.AttachWriter("s", 0, 0, 0); err == nil {
		t.Error("writer size 0 accepted")
	}
	if _, err := b.AttachWriter("s", 0, 1, -2); err == nil {
		t.Error("negative queue depth accepted")
	}
	if _, err := b.AttachReader("s", 3, 3); err == nil {
		t.Error("reader rank >= size accepted")
	}
}

func TestAttachSizeConflicts(t *testing.T) {
	b := NewBroker()
	if _, err := b.AttachWriter("s", 0, 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachWriter("s", 1, 3, 4); err == nil {
		t.Error("conflicting writer size accepted")
	}
	if _, err := b.AttachWriter("s", 1, 2, 8); err == nil {
		t.Error("conflicting queue depth accepted")
	}
	if _, err := b.AttachReader("s", 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachReader("s", 1, 5); err == nil {
		t.Error("conflicting reader size accepted")
	}
}

func TestOverfullGroupsRejected(t *testing.T) {
	b := NewBroker()
	if _, err := b.AttachWriter("s", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachWriter("s", 0, 1, 0); err == nil {
		t.Error("second writer in size-1 group accepted")
	}
	if _, err := b.AttachReader("s", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachReader("s", 0, 1); err == nil {
		t.Error("second reader in size-1 group accepted")
	}
}

func TestSingleWriterSingleReader(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, err := b.AttachWriter("data.fp", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.AttachReader("data.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		meta := []byte(fmt.Sprintf("meta%d", step))
		payload := []byte(fmt.Sprintf("payload%d", step))
		if err := w.PublishBlock(ctx, step, meta, payload); err != nil {
			t.Fatal(err)
		}
		metas, err := r.StepMeta(ctx, step)
		if err != nil {
			t.Fatal(err)
		}
		if len(metas) != 1 || string(metas[0]) != fmt.Sprintf("meta%d", step) {
			t.Fatalf("step %d metas = %q", step, metas)
		}
		got, err := r.FetchBlock(ctx, step, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("payload%d", step) {
			t.Fatalf("step %d payload = %q", step, got)
		}
		if err := r.ReleaseStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 3); !errors.Is(err, io.EOF) {
		t.Fatalf("after close StepMeta = %v, want EOF", err)
	}
}

func TestLaunchOrderIndependence(t *testing.T) {
	// Reader attaches and blocks before any writer exists — the paper's
	// "components can be launched in any order" property.
	b := NewBroker()
	ctx := ctxT(t)
	got := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		r, err := b.AttachReader("late.fp", 0, 1)
		if err != nil {
			errCh <- err
			return
		}
		if n, err := r.WriterSize(ctx); err != nil || n != 1 {
			errCh <- fmt.Errorf("WriterSize = %d, %v", n, err)
			return
		}
		if _, err := r.StepMeta(ctx, 0); err != nil {
			errCh <- err
			return
		}
		p, err := r.FetchBlock(ctx, 0, 0)
		if err != nil {
			errCh <- err
			return
		}
		got <- p
	}()
	time.Sleep(20 * time.Millisecond) // let the reader block first
	w, err := b.AttachWriter("late.fp", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 0, nil, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "hello" {
			t.Fatalf("payload = %q", p)
		}
	case err := <-errCh:
		t.Fatal(err)
	case <-ctx.Done():
		t.Fatal("reader never unblocked")
	}
}

func TestQueueDepthBlocksWriter(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, err := b.AttachWriter("q.fp", 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.AttachReader("q.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 2: steps 0 and 1 are accepted immediately.
	for s := 0; s < 2; s++ {
		if err := w.PublishBlock(ctx, s, nil, []byte{byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	// Step 2 must block until step 0 is released.
	published := make(chan error, 1)
	go func() { published <- w.PublishBlock(ctx, 2, nil, []byte{2}) }()
	select {
	case err := <-published:
		t.Fatalf("publish beyond queue depth returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish did not unblock after release")
	}
}

func TestOutOfOrderPublishRejected(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, _ := b.AttachWriter("o.fp", 0, 1, 0)
	if err := w.PublishBlock(ctx, 1, nil, nil); err == nil {
		t.Fatal("publishing step 1 before 0 accepted")
	}
	if err := w.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 0, nil, nil); err == nil {
		t.Fatal("re-publishing step 0 accepted")
	}
}

func TestMxNExchange(t *testing.T) {
	// 2 writers, 3 readers: every reader sees both writers' metadata and
	// can fetch both blocks.
	b := NewBroker()
	ctx := ctxT(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := b.AttachWriter("mxn.fp", rank, 2, 0)
			if err != nil {
				errs <- err
				return
			}
			for s := 0; s < 4; s++ {
				meta := []byte(fmt.Sprintf("m%d-%d", rank, s))
				pay := []byte(fmt.Sprintf("p%d-%d", rank, s))
				if err := w.PublishBlock(ctx, s, meta, pay); err != nil {
					errs <- err
					return
				}
			}
			if err := w.Close(); err != nil {
				errs <- err
			}
		}(wr)
	}
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r, err := b.AttachReader("mxn.fp", rank, 3)
			if err != nil {
				errs <- err
				return
			}
			for s := 0; ; s++ {
				metas, err := r.StepMeta(ctx, s)
				if errors.Is(err, io.EOF) {
					if s != 4 {
						errs <- fmt.Errorf("reader %d EOF at step %d", rank, s)
					}
					return
				}
				if err != nil {
					errs <- err
					return
				}
				for wr := 0; wr < 2; wr++ {
					if string(metas[wr]) != fmt.Sprintf("m%d-%d", wr, s) {
						errs <- fmt.Errorf("reader %d step %d meta[%d] = %q", rank, s, wr, metas[wr])
						return
					}
					pay, err := r.FetchBlock(ctx, s, wr)
					if err != nil {
						errs <- err
						return
					}
					if string(pay) != fmt.Sprintf("p%d-%d", wr, s) {
						errs <- fmt.Errorf("reader %d step %d payload[%d] = %q", rank, s, wr, pay)
						return
					}
				}
				if err := r.ReleaseStep(s); err != nil {
					errs <- err
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStepVisibleOnlyWhenAllWritersPublished(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w0, _ := b.AttachWriter("half.fp", 0, 2, 0)
	if _, err := b.AttachWriter("half.fp", 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := b.AttachReader("half.fp", 0, 1)
	if err := w0.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := r.StepMeta(short, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("StepMeta with half-published step = %v, want deadline exceeded", err)
	}
}

func TestEOFRequiresAllWritersClosed(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w0, _ := b.AttachWriter("e.fp", 0, 2, 0)
	w1, _ := b.AttachWriter("e.fp", 1, 2, 0)
	r, _ := b.AttachReader("e.fp", 0, 1)
	if err := w0.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := w1.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	// One writer closed: stream not ended, step 1 still possible.
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := r.StepMeta(short, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("StepMeta = %v, want deadline exceeded while one writer open", err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 1); !errors.Is(err, io.EOF) {
		t.Fatalf("StepMeta after all writers closed = %v, want EOF", err)
	}
	// Step 0 is still readable after EOF of later steps.
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatalf("published step unreadable after stream end: %v", err)
	}
}

func TestUnevenWriterStepsEndAtCommonStep(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w0, _ := b.AttachWriter("u.fp", 0, 2, 8)
	w1, _ := b.AttachWriter("u.fp", 1, 2, 8)
	r, _ := b.AttachReader("u.fp", 0, 1)
	// Rank 0 publishes 3 steps, rank 1 only 2: common complete steps = 2.
	for s := 0; s < 3; s++ {
		if err := w0.PublishBlock(ctx, s, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 2; s++ {
		if err := w1.PublishBlock(ctx, s, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	w0.Close()
	w1.Close()
	if _, err := r.StepMeta(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 2); !errors.Is(err, io.EOF) {
		t.Fatalf("StepMeta(2) = %v, want EOF", err)
	}
}

func TestRetiredStepErrors(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, _ := b.AttachWriter("r.fp", 0, 1, 0)
	r, _ := b.AttachReader("r.fp", 0, 1)
	if err := w.PublishBlock(ctx, 0, nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 0); !errors.Is(err, ErrStepRetired) {
		t.Fatalf("StepMeta on retired step = %v", err)
	}
	if _, err := r.FetchBlock(ctx, 0, 0); !errors.Is(err, ErrStepRetired) {
		t.Fatalf("FetchBlock on retired step = %v", err)
	}
	// Releasing an already retired step is a no-op.
	if err := r.ReleaseStep(0); err != nil {
		t.Fatalf("idempotent release failed: %v", err)
	}
}

func TestReleaseRequiresAllReaderRanks(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, _ := b.AttachWriter("rr.fp", 0, 1, 1)
	r0, _ := b.AttachReader("rr.fp", 0, 2)
	r1, _ := b.AttachReader("rr.fp", 1, 2)
	if err := w.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := r0.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	// Queue depth 1 and only one of two reader ranks released: writer
	// still blocked.
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := w.PublishBlock(short, 1, nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("publish = %v, want deadline exceeded", err)
	}
	if err := r1.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// A reader group restarted after one rank released a step the other had
// not resumes both at that step; the rank re-reading it must gate it
// again, or its peer's release retires it mid-read.
func TestReattachedReaderGatesStepsItReReads(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, _ := b.AttachWriter("re.fp", 0, 1, 2)
	r0, _ := b.AttachReader("re.fp", 0, 2)
	r1, _ := b.AttachReader("re.fp", 1, 2)
	if err := w.PublishBlock(ctx, 0, nil, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := r0.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Reader{r0, r1} {
		if err := r.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	r1, _ = b.AttachReader("re.fp", 1, 2)
	r0, _ = b.AttachReader("re.fp", 0, 2)
	for rank, r := range []*Reader{r0, r1} {
		if next := r.NextStep(); next != 0 {
			t.Fatalf("rank %d resumes at %d, want 0", rank, next)
		}
	}
	if err := r1.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if p, err := r0.FetchBlock(ctx, 0, 0); err != nil || len(p) != 1 || p[0] != 7 {
		t.Fatalf("re-read of step 0 after the peer released it = %v, %v", p, err)
	}
	if err := r0.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r0.FetchBlock(ctx, 0, 0); !errors.Is(err, ErrStepRetired) {
		t.Fatalf("step 0 after both ranks released = %v, want ErrStepRetired", err)
	}
}

// TestReleasedStepUnreadable: a rank that released a step can no longer
// read it, even while a peer still holds the step. Its views are valid
// only until its own release, so a read after it would lend storage the
// peer's release may recycle at any moment.
func TestReleasedStepUnreadable(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, _ := b.AttachWriter("rel.fp", 0, 1, 0)
	r0, _ := b.AttachReader("rel.fp", 0, 2)
	r1, _ := b.AttachReader("rel.fp", 1, 2)
	if err := w.PublishBlock(ctx, 0, []byte("m"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r0.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r0.StepMeta(ctx, 0); !errors.Is(err, ErrStepRetired) {
		t.Fatalf("StepMeta after own release = %v, want ErrStepRetired", err)
	}
	if _, err := r0.FetchBlock(ctx, 0, 0); !errors.Is(err, ErrStepRetired) {
		t.Fatalf("FetchBlock after own release = %v, want ErrStepRetired", err)
	}
	if p, err := r1.FetchBlock(ctx, 0, 0); err != nil || string(p) != "x" {
		t.Fatalf("peer still holding step 0 reads %q, %v", p, err)
	}
}

func TestReaderCloseUnwedgesWriter(t *testing.T) {
	// A departed consumer must not block the producer (failure injection).
	b := NewBroker()
	ctx := ctxT(t)
	w, _ := b.AttachWriter("dead.fp", 0, 1, 1)
	r, _ := b.AttachReader("dead.fp", 0, 1)
	if err := w.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// All reader ranks gone: publishes proceed and retire immediately.
	for s := 1; s < 10; s++ {
		if err := w.PublishBlock(ctx, s, nil, nil); err != nil {
			t.Fatalf("step %d after reader close: %v", s, err)
		}
	}
	if err := r.ReleaseStep(5); !errors.Is(err, ErrClosed) {
		t.Fatalf("release on closed reader = %v", err)
	}
}

func TestWriterCloseTwice(t *testing.T) {
	b := NewBroker()
	w, _ := b.AttachWriter("c.fp", 0, 1, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close = %v, want nil (Close is idempotent)", err)
	}
	ctx := ctxT(t)
	if err := w.PublishBlock(ctx, 0, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after close = %v", err)
	}
}

func TestAttachWriterAfterGroupClosed(t *testing.T) {
	b := NewBroker()
	w, _ := b.AttachWriter("x.fp", 0, 1, 0)
	w.Close()
	if _, err := b.AttachWriter("x.fp", 0, 1, 0); err == nil {
		t.Fatal("attach to ended stream accepted")
	}
}

// A rank of a several-writer group that closed its slot before its peers
// ended the group gets a spent handle at its end when it re-attaches: a
// supervised rank resumed after its output is whole runs out its input
// and returns. (A lone writer is refused: TestAttachWriterAfterGroupClosed.)
func TestAttachWriterSpentAfterPeersEndedGroup(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w0, _ := b.AttachWriter("sp.fp", 0, 2, 0)
	w1, _ := b.AttachWriter("sp.fp", 1, 2, 0)
	for i, w := range []*Writer{w0, w1} {
		if err := w.PublishBlock(ctx, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
		// A step counts as published once its slowest rank publishes it.
		if n := b.StreamStats()[0].StepsPublished; n != i {
			t.Fatalf("StepsPublished after %d of 2 ranks = %d, want %d", i+1, n, i)
		}
	}
	w0.Close()
	w1.Detach()
	w1, err := b.AttachWriter("sp.fp", 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1.Close() // ends the group
	spent, err := b.AttachWriter("sp.fp", 0, 2, 0)
	if err != nil {
		t.Fatalf("re-attach of a done rank to its ended group: %v", err)
	}
	if n := spent.NextStep(); n != 1 {
		t.Fatalf("spent handle at step %d, want 1", n)
	}
	err = spent.PublishBlock(ctx, 1, nil, nil)
	if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), `"sp.fp" has ended`) {
		t.Fatalf("publish past the end = %v, want ErrClosed naming the ended stream", err)
	}
	if err := spent.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := b.AttachReader("sp.fp", 0, 1)
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	r.ReleaseStep(0)
	if _, err := r.StepMeta(ctx, 1); !errors.Is(err, io.EOF) {
		t.Fatalf("after the spent handle closed: %v, want EOF", err)
	}
}

func TestStats(t *testing.T) {
	b := NewBroker()
	reg := obs.NewRegistry()
	b.SetObserver(nil, reg)
	ctx := ctxT(t)
	w, _ := b.AttachWriter("st.fp", 0, 1, 0)
	r, _ := b.AttachReader("st.fp", 0, 1)
	if err := w.PublishBlock(ctx, 0, []byte("mm"), []byte("ppp")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FetchBlock(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s["fabric.steps_published"] != 1 || s["fabric.blocks_fetched"] != 1 ||
		s["fabric.bytes_published"] != 5 || s["fabric.bytes_fetched"] != 3 {
		t.Fatalf("registry = %v", s)
	}
}

func TestFetchBlockBadRank(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, _ := b.AttachWriter("fb.fp", 0, 1, 0)
	r, _ := b.AttachReader("fb.fp", 0, 1)
	if err := w.PublishBlock(ctx, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FetchBlock(ctx, 0, 1); err == nil {
		t.Fatal("fetch from nonexistent writer rank accepted")
	}
	if _, err := r.FetchBlock(ctx, 5, 0); err == nil {
		t.Fatal("fetch of unpublished step accepted")
	}
}

func TestPipelineStress(t *testing.T) {
	// A 3-stage chain (producer → relay → consumer) with differing group
	// sizes, many steps, small queue; exercises concurrent window
	// advancement end to end.
	b := NewBroker()
	ctx := ctxT(t)
	const steps = 50
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Stage 1: 2 producers.
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := b.AttachWriter("a.fp", rank, 2, 1)
			if err != nil {
				errs <- err
				return
			}
			defer w.Close()
			for s := 0; s < steps; s++ {
				if err := w.PublishBlock(ctx, s, []byte{byte(rank)}, []byte{byte(s), byte(rank)}); err != nil {
					errs <- fmt.Errorf("producer %d step %d: %w", rank, s, err)
					return
				}
			}
		}(rank)
	}
	// Stage 2: 3 relays, each republishes what it read.
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r, err := b.AttachReader("a.fp", rank, 3)
			if err != nil {
				errs <- err
				return
			}
			w, err := b.AttachWriter("b.fp", rank, 3, 1)
			if err != nil {
				errs <- err
				return
			}
			defer w.Close()
			for s := 0; ; s++ {
				_, err := r.StepMeta(ctx, s)
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					errs <- fmt.Errorf("relay %d step %d: %w", rank, s, err)
					return
				}
				p0, err := r.FetchBlock(ctx, s, 0)
				if err != nil {
					errs <- err
					return
				}
				if err := r.ReleaseStep(s); err != nil {
					errs <- err
					return
				}
				if err := w.PublishBlock(ctx, s, nil, p0); err != nil {
					errs <- err
					return
				}
			}
		}(rank)
	}
	// Stage 3: 1 consumer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := b.AttachReader("b.fp", 0, 1)
		if err != nil {
			errs <- err
			return
		}
		count := 0
		for s := 0; ; s++ {
			_, err := r.StepMeta(ctx, s)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				errs <- fmt.Errorf("consumer step %d: %w", s, err)
				return
			}
			for wr := 0; wr < 3; wr++ {
				p, err := r.FetchBlock(ctx, s, wr)
				if err != nil {
					errs <- err
					return
				}
				if len(p) != 2 || p[0] != byte(s) {
					errs <- fmt.Errorf("consumer step %d block %d = %v", s, wr, p)
					return
				}
			}
			r.ReleaseStep(s)
			count++
		}
		if count != steps {
			errs <- fmt.Errorf("consumer saw %d steps, want %d", count, steps)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
