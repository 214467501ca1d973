package flexpath

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"testing"

	"repro/internal/pool"
)

// TestPooledFanOutRefcounts hammers the refcounted buffer path under the
// race detector: one writer publishes pooled blocks through a bounded
// queue to four reader ranks that fetch concurrently through the view
// API (StepMeta/FetchBlock), while one rank closes early mid-stream.
// Every payload carries a checksum verified after the pooled storage
// has been through recycle/reuse cycles, so a premature recycle shows
// up as corruption even without -race.
func TestPooledFanOutRefcounts(t *testing.T) {
	const (
		steps   = 40
		readers = 4
		depth   = 2
		valsN   = 512
	)
	ctx := ctxT(t)
	b := NewBroker()

	payloadFor := func(step int) []byte {
		p := make([]byte, valsN*8)
		for i := 0; i < valsN; i++ {
			binary.LittleEndian.PutUint64(p[i*8:], uint64(step)<<32|uint64(i))
		}
		return p
	}
	metaFor := func(step int) []byte {
		m := make([]byte, 8)
		binary.LittleEndian.PutUint64(m, crc32AsU64(payloadFor(step)))
		return m
	}

	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		w, err := b.AttachWriter("s", 0, 1, depth)
		if err != nil {
			errc <- err
			return
		}
		for step := 0; step < steps; step++ {
			meta := pool.Get(8)
			copy(meta.Bytes(), metaFor(step))
			payload := pool.Get(valsN * 8)
			copy(payload.Bytes(), payloadFor(step))
			// A second-step retain/release on the way in exercises the
			// refcount from the producer side too.
			payload.Retain()
			err := w.PublishBlockRef(ctx, step, meta, payload)
			payload.Release()
			if err != nil {
				errc <- err
				return
			}
		}
		if err := w.Close(); err != nil {
			errc <- err
		}
	}()

	for rank := 0; rank < readers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r, err := b.AttachReader("s", rank, readers)
			if err != nil {
				errc <- err
				return
			}
			defer r.Close()
			for step := 0; ; step++ {
				// Rank 3 departs a third of the way in: the remaining
				// ranks alone must gate retirement from then on.
				if rank == 3 && step == steps/3 {
					return
				}
				metas, err := r.StepMeta(ctx, step)
				if err == io.EOF {
					return
				}
				if err != nil {
					errc <- err
					return
				}
				meta := metas[0]
				payload, err := r.FetchBlock(ctx, step, 0)
				if err != nil {
					errc <- err
					return
				}
				wantSum := binary.LittleEndian.Uint64(meta)
				if got := crc32AsU64(payload); got != wantSum {
					errc <- fmt.Errorf("rank %d step %d: payload checksum %x, want %x", rank, step, got, wantSum)
					return
				}
				for i := 0; i < valsN; i++ {
					if v := binary.LittleEndian.Uint64(payload[i*8:]); v != uint64(step)<<32|uint64(i) {
						errc <- fmt.Errorf("rank %d step %d: value %d corrupted: %x", rank, step, i, v)
						return
					}
				}
				if err := r.ReleaseStep(step); err != nil {
					errc <- err
					return
				}
			}
		}(rank)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil && err != context.Canceled {
			t.Fatal(err)
		}
	}
}

func crc32AsU64(p []byte) uint64 {
	return uint64(crc32.ChecksumIEEE(p))
}

// TestPooledViewInvalidAfterRelease documents the aliasing contract: a
// FetchBlock view obtained before this rank's ReleaseStep must be copied
// if needed afterward. (The broker recycles the step's pooled buffers
// once every rank has released, so the test only checks the API shape —
// the recycle itself is exercised by TestPooledFanOutRefcounts.)
func TestPooledViewInvalidAfterRelease(t *testing.T) {
	ctx := ctxT(t)
	b := NewBroker()
	w, err := b.AttachWriter("s", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.AttachReader("s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		meta := pool.Get(4)
		copy(meta.Bytes(), "meta")
		payload := pool.Get(8)
		copy(payload.Bytes(), "payload!")
		done <- w.PublishBlockRef(ctx, 0, meta, payload)
	}()
	metas, err := r.StepMeta(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	view, err := r.FetchBlock(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Until this rank releases, the step cannot retire: the views hold.
	if string(metas[0]) != "meta" || string(view) != "payload!" {
		t.Fatalf("views before release: %q, %q", metas[0], view)
	}
	kept := append([]byte(nil), view...)
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if string(kept) != "payload!" {
		t.Fatalf("copy taken before release corrupted: %q", kept)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
