// Package tracetest asserts workflow properties from trace spans alone.
// It is the verification half of the observability layer: an e2e test
// runs a pipeline with a Tracer attached, then states delivery and
// lifecycle guarantees — exactly-once publishes, retire-after-last-fetch,
// resume-at-the-right-step — as span predicates instead of re-deriving
// them from component outputs.
//
// Ordering is emit order (the tracer's ring position), never timestamps
// (the wall clock can repeat under coarse clocks) and never span IDs
// (composite spans pre-allocate IDs, so a parent's ID is smaller than
// its children's even though it is emitted after them).
package tracetest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// TB is the subset of testing.TB the assertions need. Every assertion
// returns immediately after Fatalf, so a recording fake works in tests
// of the harness itself.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Pred is a span predicate; assertions and Where combine them with AND.
type Pred func(obs.Span) bool

// OfKind matches spans of kind k.
func OfKind(k obs.Kind) Pred { return func(s obs.Span) bool { return s.Kind == k } }

// OnStream matches spans on the named stream.
func OnStream(name string) Pred { return func(s obs.Span) bool { return s.Stream == name } }

// AtStep matches spans for one timestep.
func AtStep(step int) Pred { return func(s obs.Span) bool { return s.Step == step } }

// ByRank matches spans emitted on behalf of one rank.
func ByRank(rank int) Pred { return func(s obs.Span) bool { return s.Rank == rank } }

// FromPeer matches spans whose peer (e.g. a fetch's writer rank) is p.
func FromPeer(p int) Pred { return func(s obs.Span) bool { return s.Peer == p } }

// InEpoch matches spans from one restart epoch.
func InEpoch(e int) Pred { return func(s obs.Span) bool { return s.Epoch == e } }

// Failed matches spans that recorded an error.
func Failed() Pred { return func(s obs.Span) bool { return s.Err != "" } }

// And combines predicates.
func And(preds ...Pred) Pred {
	return func(s obs.Span) bool { return match(s, preds) }
}

func match(s obs.Span, preds []Pred) bool {
	for _, p := range preds {
		if !p(s) {
			return false
		}
	}
	return true
}

// Spans is a span sequence in emit order.
type Spans []obs.Span

// FromTracer snapshots a tracer's ring, oldest first.
func FromTracer(tr *obs.Tracer) Spans { return tr.Spans() }

// Load reads JSONL spans (the sbrun -trace format).
func Load(r io.Reader) (Spans, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out Spans
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var s obs.Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return nil, fmt.Errorf("tracetest: line %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// Where returns the subsequence matching every predicate, in emit order.
func (sp Spans) Where(preds ...Pred) Spans {
	var out Spans
	for _, s := range sp {
		if match(s, preds) {
			out = append(out, s)
		}
	}
	return out
}

// Steps returns the Step of each span, in emit order.
func (sp Spans) Steps() []int {
	out := make([]int, len(sp))
	for i, s := range sp {
		out[i] = s.Step
	}
	return out
}

// byID indexes spans by ID (0 IDs — absent — are skipped).
func (sp Spans) byID() map[obs.SpanID]obs.Span {
	m := make(map[obs.SpanID]obs.Span, len(sp))
	for _, s := range sp {
		if s.ID != 0 {
			m[s.ID] = s
		}
	}
	return m
}

// ExpectSpan asserts at least one span matches and returns the first.
func ExpectSpan(t TB, sp Spans, preds ...Pred) obs.Span {
	t.Helper()
	for _, s := range sp {
		if match(s, preds) {
			return s
		}
	}
	t.Fatalf("tracetest: no span matches (of %d total)", len(sp))
	return obs.Span{}
}

// ExpectNone asserts no span matches.
func ExpectNone(t TB, sp Spans, preds ...Pred) {
	t.Helper()
	for i, s := range sp {
		if match(s, preds) {
			t.Fatalf("tracetest: span %d matches unexpectedly: %+v", i, s)
			return
		}
	}
}

// ExpectCount asserts exactly want spans match.
func ExpectCount(t TB, sp Spans, want int, preds ...Pred) {
	t.Helper()
	if got := len(sp.Where(preds...)); got != want {
		t.Fatalf("tracetest: %d spans match, want %d", got, want)
	}
}

// StepKey keys a span by (stream, step).
func StepKey(s obs.Span) string { return fmt.Sprintf("%s/%d", s.Stream, s.Step) }

// StepRankKey keys a span by (stream, step, rank).
func StepRankKey(s obs.Span) string { return fmt.Sprintf("%s/%d/%d", s.Stream, s.Step, s.Rank) }

// ExactlyOncePer asserts every matching span's key occurs exactly once —
// the exactly-once-delivery matcher. Returns the keyed spans.
func ExactlyOncePer(t TB, sp Spans, key func(obs.Span) string, preds ...Pred) map[string]obs.Span {
	t.Helper()
	seen := map[string]obs.Span{}
	for _, s := range sp.Where(preds...) {
		k := key(s)
		if dup, ok := seen[k]; ok {
			t.Fatalf("tracetest: key %q seen twice:\n first %+v\nsecond %+v", k, dup, s)
			return nil
		}
		seen[k] = s
	}
	return seen
}

// ExpectConsecutiveSteps asserts the matching spans' steps are exactly
// from, from+1, … in emit order — no gap, no duplicate, no reorder. This
// is the resume proof: a supervised restart that re-publishes or skips a
// step breaks the sequence. Returns the step after the last (from if
// nothing matched).
func ExpectConsecutiveSteps(t TB, sp Spans, from int, preds ...Pred) int {
	t.Helper()
	next := from
	for i, s := range sp {
		if !match(s, preds) {
			continue
		}
		if s.Step != next {
			t.Fatalf("tracetest: span %d has step %d, want %d (gap, duplicate, or reorder): %+v", i, s.Step, next, s)
			return next
		}
		next++
	}
	return next
}

// ExpectAllBefore asserts both groups are non-empty and every span
// matching earlier precedes (in emit order) every span matching later —
// e.g. every fetch of a step before its retirement.
func ExpectAllBefore(t TB, sp Spans, earlier, later Pred) {
	t.Helper()
	lastEarlier, firstLater := -1, -1
	for i, s := range sp {
		if earlier(s) {
			lastEarlier = i
		}
		if later(s) && firstLater < 0 {
			firstLater = i
		}
	}
	if lastEarlier < 0 || firstLater < 0 {
		t.Fatalf("tracetest: ordering groups empty (earlier at %d, later at %d)", lastEarlier, firstLater)
		return
	}
	if lastEarlier > firstLater {
		t.Fatalf("tracetest: span %d (earlier group) emitted after span %d (later group)", lastEarlier, firstLater)
	}
}

// ExpectParented asserts every span matching child carries a non-zero
// Parent that resolves (anywhere in the trace) to a span matching
// parent — the causality matcher. Returns how many children it checked.
func ExpectParented(t TB, sp Spans, child Pred, parent Pred) int {
	t.Helper()
	ids := sp.byID()
	n := 0
	for i, s := range sp {
		if !child(s) {
			continue
		}
		n++
		if s.Parent == 0 {
			t.Fatalf("tracetest: span %d has no parent: %+v", i, s)
			return n
		}
		p, ok := ids[s.Parent]
		if !ok {
			t.Fatalf("tracetest: span %d's parent %d is not in the trace: %+v", i, s.Parent, s)
			return n
		}
		if !parent(p) {
			t.Fatalf("tracetest: span %d's parent does not match: child %+v parent %+v", i, s, p)
			return n
		}
	}
	if n == 0 {
		t.Fatalf("tracetest: no child spans to check")
	}
	return n
}

// Summary renders a per-kind span count, for failure messages.
func Summary(sp Spans) string {
	counts := map[obs.Kind]int{}
	for _, s := range sp {
		counts[s.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "%s=%d ", k, counts[obs.Kind(k)])
	}
	return strings.TrimSpace(b.String())
}
