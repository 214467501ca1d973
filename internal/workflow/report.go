package workflow

import (
	"fmt"
	"strings"
	"time"

	sbm "repro/internal/sb"
)

// Report renders a human-readable post-run summary of a workflow: one
// line per stage with its allocation, steps processed, data moved, and
// mean per-step active time — the quantities the paper's evaluation
// reasons about when sizing component allocations (§V-D: "Such
// experiments allow users to better determine how to allocate resources
// to SmartBlock workflows").
func Report(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workflow %s: %s end-to-end, %d processes in %d stages\n",
		res.Spec.Name, res.Elapsed.Round(time.Millisecond), res.TotalProcs(), len(res.Stages))
	for i, st := range res.Stages {
		name := st.Stage.Component
		if name == "" && st.Component != nil {
			name = st.Component.Name()
		}
		fmt.Fprintf(&sb, "  stage %d  %-12s procs=%-4d", i, name, st.Stage.Procs)
		if st.Restarts > 0 {
			fmt.Fprintf(&sb, " restarts=%-2d", st.Restarts)
		}
		if st.Err != nil {
			fmt.Fprintf(&sb, " FAILED: %v\n", st.Err)
			continue
		}
		if len(st.SubMetrics) > 0 {
			// A fused stage reports its parts individually — same columns,
			// one indented line per original component.
			sb.WriteString(" (fused)\n")
			for _, m := range st.SubMetrics {
				fmt.Fprintf(&sb, "    part   %-12s          %s\n", m.Component(), metricsCells(m))
			}
			continue
		}
		if st.Metrics == nil {
			sb.WriteString(" (no metrics)\n")
			continue
		}
		fmt.Fprintf(&sb, " %s\n", metricsCells(st.Metrics))
	}
	// When the run was wired to a metrics registry, append what the
	// fabric itself saw: steps through the broker, bytes on the wire,
	// buffer-pool efficiency, and recovery activity.
	if res.Registry != nil {
		snap := res.Registry.Snapshot()
		fmt.Fprintf(&sb, "  fabric   steps=%d retired=%d published=%s fetched=%s\n",
			snap["fabric.steps_published"], snap["fabric.steps_retired"],
			byteSize(snap["fabric.bytes_published"]), byteSize(snap["fabric.bytes_fetched"]))
		if gets := snap["pool.gets"]; gets > 0 {
			fmt.Fprintf(&sb, "  pool     gets=%d hits=%d recycles=%d\n",
				gets, snap["pool.hits"], snap["pool.recycles"])
		}
		if n := snap["workflow.restarts"] + snap["fabric.heartbeat_misses"]; n > 0 {
			fmt.Fprintf(&sb, "  recovery restarts=%d heartbeat_misses=%d\n",
				snap["workflow.restarts"], snap["fabric.heartbeat_misses"])
		}
	}
	return sb.String()
}

// metricsCells renders one collector's steps/bytes/latency columns.
func metricsCells(m *sbm.Metrics) string {
	steps := m.Steps()
	if len(steps) == 0 {
		return "steps=0"
	}
	var totalIn, totalOut int64
	var totalDur time.Duration
	for _, s := range steps {
		totalIn += s.BytesIn
		totalOut += s.BytesOut
		totalDur += s.MeanDur
	}
	meanStep := totalDur / time.Duration(len(steps))
	return fmt.Sprintf("steps=%-4d in=%-10s out=%-10s step=%s",
		len(steps), byteSize(totalIn), byteSize(totalOut), meanStep.Round(time.Microsecond))
}

// byteSize renders a byte count with a binary-prefix unit.
func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
