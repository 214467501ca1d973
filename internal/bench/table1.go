package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/workflow"

	_ "repro/internal/sim/gtcp" // register the gtcp driver
)

// GTCPScale is one run of the Table I weak-scaling experiment: the
// process allocation of every workflow component and the grid size. The
// paper grows the dataset with the process counts so per-process load is
// constant.
type GTCPScale struct {
	Name                                                          string
	GTCPProcs, SelectProcs, DimRed1Procs, DimRed2Procs, HistProcs int
	Slices, Points, Steps                                         int
	// SubCycles sets the simulation's compute-to-I/O ratio; the paper's
	// runs are dominated by simulation computation, so the default is
	// high enough for compute to dominate stream coordination.
	SubCycles int
}

// OutputBytes is the total simulation output across all steps (the
// paper's "GTCP Output (MB)" column counts the full run's output).
func (s GTCPScale) OutputBytes() int64 {
	return int64(s.Slices) * int64(s.Points) * 7 * 8 * int64(s.Steps)
}

// TotalProcs sums the allocation, the divisor of the end-to-end
// throughput metric.
func (s GTCPScale) TotalProcs() int {
	return s.GTCPProcs + s.SelectProcs + s.DimRed1Procs + s.DimRed2Procs + s.HistProcs
}

// DefaultGTCPScales mirrors the five Table I runs with the paper's
// proc-count ratios divided ~16x and the dataset shrunk to laptop scale;
// sizeFactor scales the per-process grid load (1 = ~0.5 MB per sim
// process per step).
func DefaultGTCPScales(sizeFactor float64) []GTCPScale {
	if sizeFactor <= 0 {
		sizeFactor = 1
	}
	// Paper: GTCP procs 64,84,156,234,1024; Select 10,16,18,25,116;
	// Dim-Red 6,10,14,19,88 (each); Histo 2,2,4,5,24.
	type ratio struct{ gtcp, sel, dr, hist int }
	ratios := []ratio{
		{4, 1, 1, 1},
		{6, 1, 1, 1},
		{10, 2, 1, 1},
		{15, 2, 2, 1},
		{64, 8, 6, 2},
	}
	scales := make([]GTCPScale, len(ratios))
	for i, r := range ratios {
		// Per-proc data: slicesPerProc slices of points gridpoints; the
		// points count sets the per-step bytes.
		const slicesPerProc = 4
		points := int(2048 * sizeFactor)
		scales[i] = GTCPScale{
			Name:         fmt.Sprintf("run-%d", i+1),
			GTCPProcs:    r.gtcp,
			SelectProcs:  r.sel,
			DimRed1Procs: r.dr,
			DimRed2Procs: r.dr,
			HistProcs:    r.hist,
			Slices:       r.gtcp * slicesPerProc,
			Points:       points,
			Steps:        3,
			SubCycles:    20,
		}
	}
	return scales
}

// GTCPWeakResult is the outcome of one Table I run.
type GTCPWeakResult struct {
	Scale   GTCPScale
	Elapsed time.Duration
	Result  *workflow.Result
}

// EndToEndThroughput is Table I's last column: total simulation output
// divided by total processes and end-to-end time, in bytes/sec/process.
func (r GTCPWeakResult) EndToEndThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Scale.OutputBytes()) / float64(r.Scale.TotalProcs()) / r.Elapsed.Seconds()
}

// AggregateThroughput is the whole workflow's data rate (bytes/sec,
// undivided by processes). On hosts with fewer cores than simulated
// ranks, wall-clock serialization depresses the per-process metric by
// ~1/P even when coordination costs are flat; the aggregate rate is the
// serialization-robust invariant — flat aggregate throughput across a
// weak-scaling sweep implies flat per-process throughput on an
// adequately provisioned machine (see EXPERIMENTS.md).
func (r GTCPWeakResult) AggregateThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Scale.OutputBytes()) / r.Elapsed.Seconds()
}

// gtcpSpec assembles the Fig. 6 workflow for one scale.
func gtcpSpec(s GTCPScale, hist *components.Histogram) workflow.Spec {
	return workflow.Spec{
		Name: "gtcp-weak-" + s.Name,
		Stages: []workflow.Stage{
			{Component: "gtcp", Args: []string{"gtcp.fp", "grid",
				fmt.Sprint(s.Slices), fmt.Sprint(s.Points), fmt.Sprint(s.Steps),
				"1", fmt.Sprint(max(1, s.SubCycles))}, Procs: s.GTCPProcs},
			{Component: "select", Args: []string{"gtcp.fp", "grid", "2",
				"psel.fp", "press", "pressure_perp"}, Procs: s.SelectProcs},
			{Component: "dim-reduce", Args: []string{"psel.fp", "press", "2", "1",
				"dr1.fp", "press2"}, Procs: s.DimRed1Procs},
			{Component: "dim-reduce", Args: []string{"dr1.fp", "press2", "0", "1",
				"flat.fp", "pressures"}, Procs: s.DimRed2Procs},
			{Instance: hist, Procs: s.HistProcs},
		},
	}
}

// RunGTCPWeak executes the Table I sweep, one fresh broker per run.
func RunGTCPWeak(ctx context.Context, scales []GTCPScale) ([]GTCPWeakResult, error) {
	results := make([]GTCPWeakResult, 0, len(scales))
	for _, s := range scales {
		hist, err := components.NewHistogram([]string{"flat.fp", "pressures", "16"})
		if err != nil {
			return nil, err
		}
		transport := flexpath.NewInProc()
		res, err := workflow.Run(ctx, transport, gtcpSpec(s, hist.(*components.Histogram)), workflow.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: table1 %s: %w", s.Name, err)
		}
		results = append(results, GTCPWeakResult{Scale: s, Elapsed: res.Elapsed, Result: res})
	}
	return results, nil
}

// FormatTable1 renders the Table I reproduction.
func FormatTable1(results []GTCPWeakResult) string {
	t := newTable("Run", "GTCP Output (MB)", "GTCP Procs", "Select Procs",
		"Dim-Red1 Procs", "Dim-Red2 Procs", "Histo Procs", "End2End Time (s)",
		"Throughput (KB/s)", "Aggregate (KB/s)")
	for i, r := range results {
		t.row(
			fmt.Sprint(i+1),
			Sizef(r.Scale.OutputBytes()),
			fmt.Sprint(r.Scale.GTCPProcs),
			fmt.Sprint(r.Scale.SelectProcs),
			fmt.Sprint(r.Scale.DimRed1Procs),
			fmt.Sprint(r.Scale.DimRed2Procs),
			fmt.Sprint(r.Scale.HistProcs),
			Seconds(r.Elapsed),
			fmt.Sprintf("%.0f", KBps(r.EndToEndThroughput())),
			fmt.Sprintf("%.0f", KBps(r.AggregateThroughput())),
		)
	}
	return "Table I: GTCP-SmartBlock weak scaling experiment (setup and end-to-end results)\n" + t.String()
}

// Fig9Row is one run's per-component per-process throughput sample for
// the middle timestep — the paper picks "a timestep taken arbitrarily in
// the workflow".
type Fig9Row struct {
	Run                      int
	Select, DimRed1, DimRed2 float64 // bytes/sec/process
}

// Fig9Rows derives the Fig. 9 series from the Table I runs. The two
// dim-reduce stages are distinguished by stage position (both register
// metrics under "dim-reduce").
func Fig9Rows(results []GTCPWeakResult) []Fig9Row {
	rows := make([]Fig9Row, 0, len(results))
	for i, r := range results {
		row := Fig9Row{Run: i + 1}
		step := r.Scale.Steps / 2
		drSeen := 0
		for _, st := range r.Result.Stages {
			if st.Metrics == nil {
				continue
			}
			stats, ok := st.Metrics.Step(step)
			if !ok {
				continue
			}
			switch st.Metrics.Component() {
			case "select":
				row.Select = stats.PerProcThroughput()
			case "dim-reduce":
				if drSeen == 0 {
					row.DimRed1 = stats.PerProcThroughput()
				} else {
					row.DimRed2 = stats.PerProcThroughput()
				}
				drSeen++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFig9 renders the Fig. 9 reproduction.
func FormatFig9(rows []Fig9Row) string {
	t := newTable("Run Number", "Select (KB/s)", "Dim-Reduce 1 (KB/s)", "Dim-Reduce 2 (KB/s)")
	for _, r := range rows {
		t.row(
			fmt.Sprint(r.Run),
			fmt.Sprintf("%.0f", KBps(r.Select)),
			fmt.Sprintf("%.0f", KBps(r.DimRed1)),
			fmt.Sprintf("%.0f", KBps(r.DimRed2)),
		)
	}
	return "Fig. 9: GTCP workflow weak scaling — per-component, per-process throughputs\n" + t.String()
}
