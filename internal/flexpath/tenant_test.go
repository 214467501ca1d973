package flexpath

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/streamlog"
)

func TestSplitTenant(t *testing.T) {
	cases := []struct{ in, tenant, name string }{
		{"velos.fp", "", "velos.fp"},
		{"alice/velos.fp", "alice", "velos.fp"},
		{"alice/a/b", "alice", "a/b"},
		{"/x", "", "x"},
	}
	for _, c := range cases {
		tenant, name := SplitTenant(c.in)
		if tenant != c.tenant || name != c.name {
			t.Errorf("SplitTenant(%q) = %q, %q, want %q, %q", c.in, tenant, name, c.tenant, c.name)
		}
	}
	if err := ValidTenant("alice-2"); err != nil {
		t.Errorf("ValidTenant(alice-2): %v", err)
	}
	for _, bad := range []string{"", "a/b", "a b", "a\x00"} {
		if err := ValidTenant(bad); err == nil {
			t.Errorf("ValidTenant(%q) accepted", bad)
		}
	}
}

func TestNamespacedTransportQualifiesStreams(t *testing.T) {
	b := NewBroker()
	nt, err := Namespaced(InProc{B: b}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	w, err := nt.AttachWriter("s", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(context.Background(), 0, []byte("m"), []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stats := b.StreamStats()
	if len(stats) != 1 || stats[0].Name != "alice/s" {
		t.Fatalf("broker streams = %+v, want one stream alice/s", stats)
	}
	r, err := nt.AttachReader("s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := r.StepMeta(context.Background(), 0)
	if err != nil || string(metas[0]) != "m" {
		t.Fatalf("StepMeta = %q, %v", metas, err)
	}
	if _, err := Namespaced(InProc{B: b}, "a/b"); err == nil {
		t.Fatal("Namespaced accepted a tenant with a separator")
	}
}

func TestTenantQuotaMaxStreamsAndQueueDepth(t *testing.T) {
	b := NewBroker()
	if err := b.SetTenantQuota("q", TenantQuota{MaxStreams: 1, MaxQueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachWriter("q/a", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Second stream: over the cap, clean retryable quota error.
	_, err := b.AttachWriter("q/b", 0, 1, 0)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("stream cap: err = %v, want ErrQuotaExceeded", err)
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatalf("quota rejection is not transient: %v", err)
	}
	// Re-attach to the existing stream is not a new stream.
	if _, err := b.AttachReader("q/a", 0, 1); err != nil {
		t.Fatalf("reader attach to existing stream rejected: %v", err)
	}
	// Queue depth beyond the cap.
	if _, err := b.AttachWriter("q/a", 0, 1, 5); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("queue depth cap: err = %v, want ErrQuotaExceeded", err)
	}
	// Other tenants are unaffected.
	if _, err := b.AttachWriter("other/x", 0, 1, 5); err != nil {
		t.Fatalf("unregistered tenant rejected: %v", err)
	}
}

func TestTenantQuotaMaxBytes(t *testing.T) {
	b := NewBroker()
	if err := b.SetTenantQuota("q", TenantQuota{MaxBytes: 24}); err != nil {
		t.Fatal(err)
	}
	w, err := b.AttachWriter("q/s", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := w.PublishBlock(ctx, 0, []byte("12345678"), []byte("12345678")); err != nil {
		t.Fatalf("first publish (16 bytes) rejected: %v", err)
	}
	err = w.PublishBlock(ctx, 1, []byte("12345678"), []byte("12345678"))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota publish: err = %v, want ErrQuotaExceeded", err)
	}
	// Draining the backlog clears the rejection: a reader releases step 0.
	r, err := b.AttachReader("q/s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 1, []byte("12345678"), []byte("12345678")); err != nil {
		t.Fatalf("publish after drain still rejected: %v", err)
	}
	stats := b.TenantStats()
	if len(stats) != 1 || stats[0].Tenant != "q" || stats[0].Streams != 1 {
		t.Fatalf("TenantStats = %+v", stats)
	}
	if stats[0].BytesLive != 16 {
		t.Fatalf("BytesLive = %d, want 16", stats[0].BytesLive)
	}
}

func TestTenantQuotaAdoptsExistingStreams(t *testing.T) {
	b := NewBroker()
	w, err := b.AttachWriter("late/s", 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(context.Background(), 0, []byte("meta"), []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Quota arrives after the stream exists: footprint is adopted.
	if err := b.SetTenantQuota("late", TenantQuota{MaxBytes: 8}); err != nil {
		t.Fatal(err)
	}
	st := b.TenantStats()[0]
	if st.Streams != 1 || st.BytesLive != 8 {
		t.Fatalf("adopted stats = %+v, want 1 stream / 8 bytes", st)
	}
	if err := w.PublishBlock(context.Background(), 1, []byte("meta"), []byte("data")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("publish after adoption: err = %v, want ErrQuotaExceeded", err)
	}
}

func TestEvictTenantDrainsBeforeClose(t *testing.T) {
	b := NewBroker()
	b.SetObserver(nil, obs.NewRegistry())
	if err := b.SetTenantQuota("ev", TenantQuota{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := b.AttachWriter("ev/s", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.AttachReader("ev/s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if err := w.PublishBlock(ctx, step, []byte("m"), []byte{byte(step)}); err != nil {
			t.Fatal(err)
		}
	}

	evicted := make(chan error, 1)
	go func() { evicted <- b.EvictTenant(ctx, "ev") }()

	// Eviction must not complete while the reader still gates buffered
	// steps — and the reader must stay fully served, not severed.
	select {
	case err := <-evicted:
		t.Fatalf("eviction completed before the reader drained (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// New work in the namespace is refused while the drain runs.
	if _, err := b.AttachWriter("ev/new", 0, 1, 0); !errors.Is(err, ErrTenantEvicted) {
		t.Fatalf("attach during eviction: err = %v, want ErrTenantEvicted", err)
	}
	if err := w.PublishBlock(ctx, 3, []byte("m"), []byte("x")); !errors.Is(err, ErrTenantEvicted) {
		t.Fatalf("publish during eviction: err = %v, want ErrTenantEvicted", err)
	}
	for step := 0; step < 3; step++ {
		if _, err := r.StepMeta(ctx, step); err != nil {
			t.Fatalf("reader severed at step %d during eviction: %v", step, err)
		}
		if blk, err := r.FetchBlock(ctx, step, 0); err != nil || blk[0] != byte(step) {
			t.Fatalf("fetch step %d during eviction: %q, %v", step, blk, err)
		}
		if err := r.ReleaseStep(step); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-evicted:
		if err != nil {
			t.Fatalf("eviction failed after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eviction did not complete after the reader drained")
	}
	// The namespace's streams ended gracefully and are gone.
	if _, err := r.StepMeta(ctx, 3); err != io.EOF {
		t.Fatalf("reader past eviction: err = %v, want io.EOF", err)
	}
	if n := len(b.StreamStats()); n != 0 {
		t.Fatalf("%d stream(s) survived eviction", n)
	}
	if len(b.TenantStats()) != 0 {
		t.Fatal("tenant registration survived eviction")
	}
}

// A tenant registered by EvictTenant alone, after its streams exist,
// reports the footprint those streams hold while the drain runs.
func TestEvictTenantStatsDuringDrain(t *testing.T) {
	b := NewBroker()
	ctx := ctxT(t)
	w, err := b.AttachWriter("ghost/s", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.AttachReader("ghost/s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if err := w.PublishBlock(ctx, step, []byte("meta"), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	evicted := make(chan error, 1)
	go func() { evicted <- b.EvictTenant(ctx, "ghost") }()
	for len(b.TenantStats()) == 0 {
		time.Sleep(time.Millisecond)
	}
	for step := 0; step < 2; step++ {
		if _, err := r.StepMeta(ctx, step); err != nil {
			t.Fatal(err)
		}
		if err := r.ReleaseStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.TenantStats()[0]; st.Streams != 1 || st.BytesLive != 8 || !st.Evicting {
		t.Fatalf("stats during the drain = %+v, want 1 stream / 8 bytes, evicting", st)
	}
	if err := r.ReleaseStep(2); err != nil {
		t.Fatal(err)
	}
	if err := <-evicted; err != nil {
		t.Fatalf("eviction: %v", err)
	}
}

func TestEvictTenantUnblocksParkedWriter(t *testing.T) {
	b := NewBroker()
	ctx := context.Background()
	w, err := b.AttachWriter("park/s", 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.AttachReader("park/s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 0, []byte("m"), []byte("p")); err != nil {
		t.Fatal(err)
	}
	pubErr := make(chan error, 1)
	go func() {
		// Queue window full (depth 1, step 0 unreleased): parks.
		pubErr <- w.PublishBlock(ctx, 1, []byte("m"), []byte("p"))
	}()
	time.Sleep(20 * time.Millisecond)
	evictCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- b.EvictTenant(evictCtx, "park") }()
	select {
	case err := <-pubErr:
		if !errors.Is(err, ErrTenantEvicted) {
			t.Fatalf("parked publish: err = %v, want ErrTenantEvicted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eviction left the parked writer blocked")
	}
	// The reader still gates the accepted step; drain it so the
	// eviction can complete.
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("eviction: %v", err)
	}
}

func TestEvictTenantNoReadersWaitsForDurability(t *testing.T) {
	dir := t.TempDir()
	store, err := streamlog.OpenStore(dir, streamlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	b := NewBroker()
	b.AttachLog(store)
	ctx := context.Background()
	w, err := b.AttachWriter("dur/s", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if err := w.PublishBlock(ctx, step, []byte("m"), []byte{byte(step)}); err != nil {
			t.Fatal(err)
		}
	}
	// No reader group: eviction drains through the durability watermark
	// (the write-behind appender catching up), not reader releases.
	evictCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := b.EvictTenant(evictCtx, "dur"); err != nil {
		t.Fatalf("eviction: %v", err)
	}
	// Everything published made it to disk before memory was freed.
	lg, err := store.Log("dur/s")
	if err != nil {
		t.Fatal(err)
	}
	if lg.NextStep() != 3 {
		t.Fatalf("log holds steps [..%d), want [..3): eviction freed undurable steps", lg.NextStep())
	}
}

func TestTenantQuotaCountsLogBytes(t *testing.T) {
	dir := t.TempDir()
	store, err := streamlog.OpenStore(dir, streamlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	b := NewBroker()
	b.AttachLog(store)
	if err := b.SetTenantQuota("lg", TenantQuota{MaxBytes: 256}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := b.AttachWriter("lg/s", 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.AttachReader("lg/s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Publish-and-release until the durable log footprint alone trips
	// the quota: every step retires (bytesLive returns to 0), so only
	// the stream log's retention accounting can accumulate.
	var quotaErr error
	for step := 0; step < 1000; step++ {
		err := w.PublishBlock(ctx, step, []byte("metadata"), []byte("payloadpayload"))
		if err != nil {
			quotaErr = err
			break
		}
		if _, err := r.StepMeta(ctx, step); err != nil {
			t.Fatal(err)
		}
		if err := r.ReleaseStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(quotaErr, ErrQuotaExceeded) {
		t.Fatalf("log-byte accounting never tripped the quota: %v", quotaErr)
	}
}
