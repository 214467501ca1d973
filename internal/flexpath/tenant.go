package flexpath

// Multi-tenant namespacing and admission control. A tenant is a stream
// namespace: stream "velos.fp" submitted by tenant "alice" lives on the
// broker as "alice/velos.fp", so two tenants running the same workflow
// script never collide. The qualification happens in exactly one place —
// the Namespaced transport wrapper — and the qualified name then flows
// through attach/publish/fetch on every backend unchanged, because the
// whole fabric (wire protocol, stream log, replay) already treats stream
// names as opaque strings. The broker side of the tenant model is
// accounting and admission: per-tenant quotas on live streams, writer
// queue depth, and resident bytes (in-memory queue plus the durable
// log's retention accounting), plus graceful eviction that drains
// through the durability watermark instead of severing live readers.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Tenant admission errors.
var (
	// ErrQuotaExceeded is returned when an attach or publish would push a
	// tenant past one of its quotas. It is retryable: the tenant's
	// backlog draining (steps retiring, log segments evicting) or an
	// operator raising the quota both clear it, so supervised stages may
	// back off and retry rather than fail the workflow.
	ErrQuotaExceeded = errors.New("flexpath: tenant quota exceeded")
	// ErrTenantEvicted is returned for operations on a tenant that is
	// being (or has been) evicted. It is terminal: the namespace is going
	// away, retrying against it cannot succeed.
	ErrTenantEvicted = errors.New("flexpath: tenant evicted")
)

// QuotaError is the concrete error behind ErrQuotaExceeded, carrying
// which tenant hit which limit. It self-declares as transient so
// workflow.Retryable treats quota rejections as a clean, retryable
// condition on every backend.
type QuotaError struct {
	Msg string
}

func (e *QuotaError) Error() string { return e.Msg }

// Unwrap ties the error to the ErrQuotaExceeded sentinel.
func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// Transient marks quota rejections retryable (see workflow.Retryable).
func (e *QuotaError) Transient() bool { return true }

func quotaErrf(format string, args ...any) error {
	return &QuotaError{Msg: "flexpath: tenant quota exceeded: " + fmt.Sprintf(format, args...)}
}

// tenantEvictedError wraps ErrTenantEvicted with the rejected tenant.
type tenantEvictedError struct {
	msg string
}

func (e *tenantEvictedError) Error() string { return e.msg }
func (e *tenantEvictedError) Unwrap() error { return ErrTenantEvicted }

func evictedErrf(format string, args ...any) error {
	return &tenantEvictedError{msg: "flexpath: tenant evicted: " + fmt.Sprintf(format, args...)}
}

// SplitTenant splits a qualified stream name into its tenant namespace
// and the bare stream name. Streams without a separator belong to the
// anonymous tenant "" — the single-workflow world every pre-tenant
// caller lives in.
func SplitTenant(stream string) (tenant, name string) {
	if i := strings.IndexByte(stream, '/'); i >= 0 {
		return stream[:i], stream[i+1:]
	}
	return "", stream
}

// ValidTenant checks a tenant name can qualify stream names: non-empty,
// no separator, and drawn from the launch-script component alphabet so
// it survives scripts, URLs, and the stream log's path escaping.
func ValidTenant(name string) error {
	if name == "" {
		return fmt.Errorf("flexpath: empty tenant name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("flexpath: tenant name %q contains %q (want letters, digits, '.', '_', '-')", name, r)
		}
	}
	return nil
}

// TenantQuota bounds one tenant's footprint on the broker. Zero fields
// are unlimited.
type TenantQuota struct {
	// MaxStreams caps the tenant's live streams (streams never retire
	// short of eviction, so this is also a lifetime cap per tenant).
	MaxStreams int
	// MaxQueueDepth caps the writer-side queue depth any of the tenant's
	// streams may attach with — the per-stream buffering admission knob.
	MaxQueueDepth int
	// MaxBytes caps the tenant's resident bytes: the in-memory queued
	// (published, unretired) blocks plus, when a durable log is mounted,
	// the tenant's on-disk log footprint as counted by the stream log's
	// retention accounting. Publishes beyond it are rejected with
	// ErrQuotaExceeded until the backlog drains or segments evict.
	MaxBytes int64
}

// TenantStat is a snapshot of one registered tenant's accounting.
type TenantStat struct {
	Tenant    string
	Quota     TenantQuota
	Streams   int   // live streams in the namespace
	BytesLive int64 // queued (published, unretired) bytes
	BytesLog  int64 // on-disk stream-log bytes (0 without a log)
	Evicting  bool
}

// tenantState is the broker-side state of one registered tenant
// (SetTenantQuota / EvictTenant); anonymous and unregistered namespaces
// pay one nil map lookup. Its footprint is not kept here but summed
// from the broker's streams when a quota or a snapshot needs it (see
// tenantFootprint), so it cannot drift from what the broker holds.
type tenantState struct {
	quota    TenantQuota
	evicting bool
}

// tenantOf resolves the registered tenant state a stream belongs to,
// nil for unregistered namespaces. Caller holds b.mu.
func (b *Broker) tenantOf(stream string) *tenantState {
	if len(b.tenants) == 0 {
		return nil
	}
	tenant, _ := SplitTenant(stream)
	return b.tenants[tenant]
}

// tenantEvicting reports whether the stream's namespace is sealed by an
// in-progress eviction. Caller holds b.mu.
func (b *Broker) tenantEvicting(stream string) bool {
	ts := b.tenantOf(stream)
	return ts != nil && ts.evicting
}

// registerTenant returns the tenant's state, registering it first if
// needed. Caller holds b.mu.
func (b *Broker) registerTenant(tenant string) *tenantState {
	ts := b.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		if b.tenants == nil {
			b.tenants = make(map[string]*tenantState)
		}
		b.tenants[tenant] = ts
	}
	return ts
}

// tenantFootprint sums the namespace's live streams and their queued
// (published, unretired) bytes. Caller holds b.mu.
func (b *Broker) tenantFootprint(tenant string) (streams int, bytesLive int64) {
	for name, s := range b.streams {
		if owner, _ := SplitTenant(name); owner == tenant {
			streams++
			for _, st := range s.steps {
				bytesLive += stepBytes(st)
			}
		}
	}
	return streams, bytesLive
}

// SetTenantQuota registers (or re-quotas) a tenant. Streams already
// live in the namespace count toward the quota like any other.
func (b *Broker) SetTenantQuota(tenant string, q TenantQuota) error {
	if err := ValidTenant(tenant); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.registerTenant(tenant).quota = q
	b.cond.Broadcast()
	return nil
}

// TenantStats snapshots every registered tenant, sorted by name.
func (b *Broker) TenantStats() []TenantStat {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TenantStat, 0, len(b.tenants))
	for name, ts := range b.tenants {
		stat := TenantStat{Tenant: name, Quota: ts.quota, Evicting: ts.evicting}
		stat.Streams, stat.BytesLive = b.tenantFootprint(name)
		if b.logStore != nil {
			stat.BytesLog = b.logStore.PrefixBytes(name + "/")
		}
		out = append(out, stat)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// admitAttach is the tenant gate on AttachWriter/AttachReader. creating
// reports whether this attach would create the stream. Caller holds
// b.mu.
func (b *Broker) admitAttach(stream string, depth int, creating, writer bool) error {
	ts := b.tenantOf(stream)
	if ts == nil {
		return nil
	}
	tenant, _ := SplitTenant(stream)
	if ts.evicting {
		return evictedErrf("tenant %q: attach to stream %q refused", tenant, stream)
	}
	if creating && ts.quota.MaxStreams > 0 {
		if streams, _ := b.tenantFootprint(tenant); streams >= ts.quota.MaxStreams {
			return quotaErrf("tenant %q at its stream cap (%d)", tenant, ts.quota.MaxStreams)
		}
	}
	if writer && ts.quota.MaxQueueDepth > 0 && depth > ts.quota.MaxQueueDepth {
		return quotaErrf("tenant %q queue depth %d exceeds cap %d", tenant, depth, ts.quota.MaxQueueDepth)
	}
	return nil
}

// admitPublish is the tenant gate on accepting a published block of
// nbytes. Caller holds b.mu.
func (b *Broker) admitPublish(s *stream, nbytes int64) error {
	ts := b.tenantOf(s.name)
	if ts == nil {
		return nil
	}
	tenant, _ := SplitTenant(s.name)
	if ts.evicting {
		return evictedErrf("tenant %q: publish on stream %q refused", tenant, s.name)
	}
	if q := ts.quota.MaxBytes; q > 0 {
		_, total := b.tenantFootprint(tenant)
		total += nbytes
		if b.logStore != nil && !s.logBroken {
			total += b.logStore.PrefixBytes(tenant + "/")
		}
		if total > q {
			return quotaErrf("tenant %q resident bytes %d + %d exceed cap %d (retry after the backlog drains)",
				tenant, total-nbytes, nbytes, q)
		}
	}
	return nil
}

// stepBytes sums a buffered step's meta and payload bytes.
func stepBytes(st *stepState) int64 {
	var n int64
	for i := range st.metas {
		if st.metas[i] != nil {
			n += int64(st.metas[i].Len())
		}
		if st.payloads[i] != nil {
			n += int64(st.payloads[i].Len())
		}
	}
	return n
}

// EvictTenant gracefully removes a tenant from the broker. Eviction is
// a drain, not a sever:
//
//  1. The namespace is sealed — new attaches and publishes are refused
//     with ErrTenantEvicted, and writers parked on a full queue window
//     unblock with the same answer.
//  2. The tenant's buffered steps drain at their consumers' pace: live
//     readers keep fetching and releasing, and each retirement still
//     passes the PR 6 durability gate, so nothing leaves memory before
//     the stream log has it. A stream no reader group ever attached to
//     drains once its published steps are behind the durability
//     watermark (immediately, when no log is mounted).
//  3. The tenant's streams end (blocked readers see io.EOF at the last
//     fully published step, not an error) and are removed, incomplete
//     steps are freed, and the tenant's registration is dropped.
//
// ctx bounds the drain: on expiry the tenant stays sealed and evicting,
// and a later EvictTenant call may resume the drain.
func (b *Broker) EvictTenant(ctx context.Context, tenant string) error {
	if err := ValidTenant(tenant); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.registerTenant(tenant).evicting = true
	b.cond.Broadcast() // unblock the tenant's parked publishers
	if err := b.wait(ctx, func() bool { return b.tenantDrained(tenant) }); err != nil {
		return err
	}
	// Drained: end and remove the namespace's streams.
	for name, s := range b.streams {
		if owner, _ := SplitTenant(name); owner != tenant {
			continue
		}
		if !s.ended {
			s.ended = true
			s.lastStep = lastFullyPublished(s)
		}
		for step, st := range s.steps {
			delete(s.steps, step)
			b.obs.queuedSteps.Add(-1)
			st.free()
		}
		delete(b.streams, name)
	}
	delete(b.tenants, tenant)
	b.cond.Broadcast()
	return nil
}

// tenantDrained reports whether every stream of the namespace has
// drained (see EvictTenant), retiring what retirement rules allow along
// the way. Caller holds b.mu.
func (b *Broker) tenantDrained(tenant string) bool {
	drained := true
	for name, s := range b.streams {
		if owner, _ := SplitTenant(name); owner != tenant {
			continue
		}
		for s.retireHead(b) {
		}
		if !b.streamDrained(s) {
			drained = false
		}
	}
	return drained
}

// streamDrained reports whether eviction may remove the stream now:
// every fully published step has either retired (reader releases, via
// the durability gate) or — when no reader group exists to drive
// retirement — sits behind the durability watermark. Incomplete steps
// (a writer group that never finished them) never block eviction: with
// the namespace sealed no writer can complete them. Caller holds b.mu.
func (b *Broker) streamDrained(s *stream) bool {
	durable := b.logStore == nil || s.logBroken
	for step, st := range s.steps {
		if !st.complete() {
			continue // incomplete: sealed namespace, can never complete
		}
		if s.readerSize > 0 {
			return false // readers own the drain; wait for their releases
		}
		if !durable && step >= s.logged {
			return false // no readers: the log must have it first
		}
	}
	return true
}

// lastFullyPublished returns the highest step every writer rank
// published, -1 when none. Caller holds b.mu.
func lastFullyPublished(s *stream) int {
	if s.writerSize == 0 {
		return -1
	}
	last := s.lastByRank[0]
	for _, n := range s.lastByRank[1:] {
		if n < last {
			last = n
		}
	}
	return last - 1
}

// Namespaced wraps a transport so every stream name is qualified with
// the tenant's namespace: Attach*("velos.fp") lands on
// "<tenant>/velos.fp". This is the one seam multi-tenancy enters the
// fabric through — components, the workflow runner, and the wire
// protocols all stay tenant-oblivious, on every backend. Closing the
// wrapper is a no-op: the inner transport is shared across tenants and
// owned by whoever built it.
func Namespaced(t Transport, tenant string) (Transport, error) {
	if err := ValidTenant(tenant); err != nil {
		return nil, err
	}
	return &namespaced{inner: t, prefix: tenant + "/"}, nil
}

type namespaced struct {
	inner  Transport
	prefix string
}

// AttachWriter implements Transport.
func (n *namespaced) AttachWriter(stream string, rank, size, depth int) (WriterHandle, error) {
	return n.inner.AttachWriter(n.prefix+stream, rank, size, depth)
}

// AttachReader implements Transport.
func (n *namespaced) AttachReader(stream string, rank, size int) (ReaderHandle, error) {
	return n.inner.AttachReader(n.prefix+stream, rank, size)
}

// OpenReaderFrom implements ReplayTransport when the inner backend does.
func (n *namespaced) OpenReaderFrom(stream string, from int) (ReaderHandle, error) {
	return OpenReaderFrom(n.inner, n.prefix+stream, from)
}

// Close implements Transport as a no-op; the shared inner transport is
// closed by its owner, not per tenant.
func (n *namespaced) Close() error { return nil }

var (
	_ Transport       = (*namespaced)(nil)
	_ ReplayTransport = (*namespaced)(nil)
)
