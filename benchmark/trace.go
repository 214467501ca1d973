package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

// The traced run. End-to-end metrics are always measured with no tracer
// and no decorator; -trace 1 repeats the workload at half length with
// both installed, alternating with plain half-length repetitions so the
// two are compared under the same conditions, then times single layers
// in isolation. Everything here is taken from the benchmark's own code
// around calls into a layer, or from the spans and counters the system
// already exposes.

// perLayer is every per-layer metric, in the order they are printed.
// BENCHMARK.json declares the same list; a test keeps the two equal.
var perLayer = []metricDef{
	{Name: "sim.step_ms", Unit: "ms", Better: "lower"},
	{Name: "adios.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "adios.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "adios.meta_us", Unit: "us", Better: "lower"},
	{Name: "adios.write_self_ms", Unit: "ms", Better: "lower"},
	{Name: "adios.read_self_ms", Unit: "ms", Better: "lower"},
	{Name: "flexpath.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "flexpath.meta_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "flexpath.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "flexpath.release_us", Unit: "us", Better: "lower"},
	{Name: "flexpath.blocks_per_step", Unit: "count", Better: "lower"},
	{Name: "flexpath.bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "flexpath.roundtrip_us.inproc", Unit: "us", Better: "lower"},
	{Name: "flexpath.roundtrip_us.tcp", Unit: "us", Better: "lower"},
	{Name: "flexpath.roundtrip_us.uds", Unit: "us", Better: "lower"},
	{Name: "flexpath.roundtrip_us.shm", Unit: "us", Better: "lower"},
	{Name: "flexpath.bulk_mb_s.inproc", Unit: "MB/s", Better: "higher"},
	{Name: "flexpath.bulk_mb_s.tcp", Unit: "MB/s", Better: "higher"},
	{Name: "flexpath.bulk_mb_s.uds", Unit: "MB/s", Better: "higher"},
	{Name: "flexpath.bulk_mb_s.shm", Unit: "MB/s", Better: "higher"},
	{Name: "ndarray.assemble_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ndarray.dimreduce_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ndarray.select_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "components.kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "components.magnitude_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "components.histogram_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "sb.stage_self_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "pool.recycle_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pool.news_per_step", Unit: "count", Better: "lower"},
	{Name: "streamlog.append_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "streamlog.readview_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "streamlog.logged_kb_per_step", Unit: "KB", Better: "lower"},
	{Name: "streamlog.record_tax_ms", Unit: "ms", Better: "lower"},
	{Name: "workflow.launch_ms", Unit: "ms", Better: "lower"},
	{Name: "workflow.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "unattributed_pct", Unit: "%", Better: "lower"},
}

// layers is the fold of one traced repetition. Its budget is rank-time:
// every rank goroutine lives through every step, so per step there are
// step_ms x ranks milliseconds to account for, and each of them was
// spent busy inside some layer, waiting inside the fabric, or not
// observed at all (unattributed). Times are wall time on the rank's
// goroutine, so time spent runnable but descheduled is charged to the
// layer the rank was in — which is what keeps the identity exact when
// ranks outnumber cores.
type layers struct {
	stepMS  float64 // the repetition's own step time
	ranks   float64 // rank goroutines sharing each step
	rows    []layerRow
	byStage map[string]float64 // kernel ms per step by stage (component@input stream)
	m       map[string]float64 // per-layer metric values taken from this repetition
}

// layerRow is one line of the layer table, per step and summed over
// ranks. A row with neither busy nor wait time carries counts only.
type layerRow struct {
	name           string
	busyMS, waitMS float64
	count          float64
	note           string
}

// finish computes the unattributed share from the rows.
func (L *layers) finish() {
	covered := 0.0
	for _, row := range L.rows {
		covered += row.busyMS + row.waitMS
	}
	L.m["unattributed_pct"] = 100 * (1 - covered/(L.stepMS*L.ranks))
}

// fold reduces a live traced repetition and its spans to layers.
func (r *rep) fold(spans []Span) *layers {
	rec, w := r.rec, r.w
	n := float64(len(rec.done))
	L := &layers{stepMS: r.stepMS(), ranks: float64(w.ranks()), byStage: map[string]float64{}, m: map[string]float64{}}
	perStepMS := func(ns float64) float64 { return ns / 1e6 / n }

	// The fabric, from the decorator, split into the benchmark's own two
	// handles and the system stages' handles.
	all := r.tt.total("")
	ownSrc := r.tt.total(r.tt.srcStream)
	ownSink := r.tt.total(r.tt.sinkStream)
	sysTransport := (all.publishNS - ownSrc.publishNS) +
		(all.metaNS - ownSink.metaNS) + (all.fetchNS - ownSink.fetchNS) + (all.releaseNS - ownSink.releaseNS)

	// The benchmark's own ends: adios self time is the enclosing adios
	// call minus the transport time the decorator saw nested in it.
	var writeSelf, readSelf, sinkKernel, srcBusy float64
	for k := range rec.done {
		for rank := range rec.stamps[k] {
			srcBusy += float64(rec.srcBusy[k][rank])
			writeSelf += float64(rec.accepted[k][rank] - rec.stamps[k][rank] - rec.pubNS[k][rank])
		}
		for rank := range rec.sinkReadNS[k] {
			readSelf += float64(rec.sinkReadNS[k][rank] - rec.sinkNestedNS[k][rank])
			sinkKernel += float64(rec.sinkKernelNS[k][rank])
		}
	}
	srcName := "source (generate+stage)"
	if w.Family == famLAMMPS {
		// The proxy times its own steps (compute, encode and publish); its
		// publish time is known from the decorator, the encode cannot be
		// told apart from outside and stays with the compute.
		srcName = "source (proxy compute+encode)"
		srcBusy = sum(kernelStepMeans(r.res, "lammps"))*1e6*float64(w.SrcRanks) - ownSrc.publishNS
		writeSelf = 0
	}

	// System stages, from the spans the system emits.
	var stageNS, kernelNS, logBytes, logRecords float64
	for _, sp := range spans {
		d := float64(sp.End - sp.Start)
		switch sp.Kind {
		case spanStageStep:
			stageNS += d
		case spanKernel:
			kernelNS += d
			L.byStage[sp.Note+"@"+sp.Stream] += d / 1e6 / n
		case spanLogAppend:
			logBytes += float64(sp.Bytes)
			logRecords++
		}
	}
	L.byStage["histogram@sink"] = perStepMS(sinkKernel)
	stageSelf := max(0, stageNS-kernelNS-sysTransport)

	L.rows = []layerRow{
		{name: srcName, busyMS: perStepMS(srcBusy), count: float64(w.SrcRanks)},
		{name: "adios write self (source)", busyMS: perStepMS(writeSelf), count: float64(w.SrcRanks)},
		{name: "flexpath publish", waitMS: perStepMS(all.publishNS), count: all.publishes / n, note: "queue-window wait; on a socket wire also the frame write"},
		{name: "flexpath meta wait", waitMS: perStepMS(all.metaNS), count: all.releases / n, note: "waiting for the producer"},
		{name: "flexpath fetch+release", busyMS: perStepMS(all.fetchNS + all.releaseNS), count: (all.fetches + all.releases) / n},
		{name: "sb stage self", busyMS: perStepMS(stageSelf), note: "step loop, adios decode/assemble/encode of system stages"},
		{name: "components kernels", busyMS: perStepMS(kernelNS + sinkKernel), count: float64(len(L.byStage))},
		{name: "adios read self (sink)", busyMS: perStepMS(readSelf), count: float64(w.SinkRanks)},
		{name: "streamlog append", count: logRecords / n, note: fmt.Sprintf("%.0f KB/step journaled off the ranks; see streamlog.record_tax_ms", logBytes/1024/n)},
	}

	L.m["adios.write_self_ms"] = perStepMS(writeSelf)
	L.m["adios.read_self_ms"] = perStepMS(readSelf)
	L.m["flexpath.publish_ms"] = perStepMS(all.publishNS)
	L.m["flexpath.meta_wait_ms"] = perStepMS(all.metaNS)
	L.m["flexpath.fetch_ms"] = perStepMS(all.fetchNS)
	L.m["flexpath.release_us"] = all.releaseNS / 1e3 / n
	L.m["flexpath.blocks_per_step"] = all.fetches / n
	L.m["flexpath.bytes_per_step"] = all.publishBytes / n
	L.m["components.kernel_ms"] = perStepMS(kernelNS + sinkKernel)
	L.m["sb.stage_self_ms"] = perStepMS(stageSelf)
	L.m["streamlog.logged_kb_per_step"] = logBytes / 1024 / n
	L.m["workflow.launch_ms"] = float64(slices.Min(rec.stamps[0])-r.entry) / 1e6
	L.m["workflow.drain_ms"] = float64(r.exit-rec.done[len(rec.done)-1]) / 1e6
	measured := float64(r.opts.steps)
	L.m["runtime.gc_pause_ms_per_step"] = float64(rec.snapEnd.gcPause-rec.snapWarm.gcPause) / 1e6 / measured
	L.m["runtime.allocs_per_step"] = float64(rec.snapEnd.allocObjects-rec.snapWarm.allocObjects) / measured
	if gets := float64(r.pool1[0] - r.pool0[0]); gets > 0 {
		L.m["pool.recycle_ratio"] = float64(r.pool1[2]-r.pool0[2]) / gets
	}
	L.m["pool.news_per_step"] = float64(r.pool1[1]-r.pool0[1]) / n
	if w.Family != famLAMMPS {
		L.m["sim.step_ms"] = perStepMS(srcBusy) / float64(w.SrcRanks)
	}
	L.finish()
	return L
}

// foldReplay reduces a traced replay repetition: there is no decorator
// inside replay.Run, so only the spans speak. The replayed stage's
// ranks are the only ranks.
func (r *rep) foldReplay(spans []Span) *layers {
	n := float64(r.opts.warm + r.opts.steps)
	L := &layers{stepMS: r.stepMS(), ranks: float64(r.w.MidRanks), byStage: map[string]float64{}, m: map[string]float64{}}
	var stageNS, kernelNS, logBytes, reads float64
	for _, sp := range spans {
		d := float64(sp.End - sp.Start)
		switch sp.Kind {
		case spanStageStep:
			stageNS += d
		case spanKernel:
			kernelNS += d
			L.byStage[sp.Note+"@"+sp.Stream] += d / 1e6 / n
		case spanLogReplay:
			logBytes += float64(sp.Bytes)
			reads++
		}
	}
	self := max(0, stageNS-kernelNS) / 1e6 / n
	L.rows = []layerRow{
		{name: "sb stage self", busyMS: self, note: "step loop, adios, log reads and the capture copy"},
		{name: "components kernels", busyMS: kernelNS / 1e6 / n, count: float64(len(L.byStage))},
		{name: "streamlog read", count: reads / n, note: fmt.Sprintf("%.0f KB/step read from the recording, inside stage self", logBytes/1024/n)},
	}
	L.m["components.kernel_ms"] = kernelNS / 1e6 / n
	L.m["sb.stage_self_ms"] = self
	L.m["streamlog.logged_kb_per_step"] = logBytes / 1024 / n
	L.finish()
	return L
}

// table renders the layer table of one traced repetition.
func (L *layers) table() string {
	var b strings.Builder
	budget := L.stepMS * L.ranks
	fmt.Fprintf(&b, "   layer table: ms per step summed over ranks; share = (busy+wait) / rank-time, rank-time = step_ms %.4f x %.0f ranks = %.4f ms\n",
		L.stepMS, L.ranks, budget)
	fmt.Fprintf(&b, "   %-30s %11s %11s %9s %8s\n", "layer", "busy ms", "wait ms", "count", "share %")
	for _, row := range L.rows {
		share := fmt.Sprintf("%8s", "")
		if row.busyMS+row.waitMS > 0 {
			share = fmt.Sprintf("%8.1f", 100*(row.busyMS+row.waitMS)/budget)
		}
		line := fmt.Sprintf("   %-30s %11.4f %11.4f %9.2f %s", row.name, row.busyMS, row.waitMS, row.count, share)
		if row.note != "" {
			line += "  " + row.note
		}
		fmt.Fprintln(&b, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(&b, "   %-30s %43.1f\n", "unattributed_pct", L.m["unattributed_pct"])
	stages := make([]string, 0, len(L.byStage))
	for s := range L.byStage {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		fmt.Fprintf(&b, "   components.kernel_ms.%-24s %10.4f ms\n", s, L.byStage[s])
	}
	return b.String()
}

// traced produces the per-layer metrics of one workload.
func (s *session) traced(ctx context.Context, o options, res *result) error {
	w := s.w
	half := repOptions{warm: max(1, w.Warm/2), steps: max(2, w.Steps/2)}
	iso := s.isolated()

	var plainMS, tracedMS []float64
	var folds []*layers
	var lastSpans *Tracer
	extra := map[string][]float64{}
	start := time.Now()
	budget := 0.6 * o.seconds
	for i := 0; i < 2 || time.Since(start).Seconds() < budget; i++ {
		plain := s.run(ctx, half)
		if !plain.complete() {
			break
		}
		plainMS = append(plainMS, plain.stepMS())
		if w.Family == famLAMMPS {
			if err := s.simBaselines(ctx, plain, extra); err != nil {
				return err
			}
		}
		if w.Log && !w.Replay {
			if ms, ok := s.withoutLog(ctx, half); ok {
				extra["step_ms_without_log"] = append(extra["step_ms_without_log"], ms)
			}
		}
		opts := half
		// Ring sized for every span of the repetition: a stage step emits
		// at most ~12 spans per rank (step, kernel, publishes, fetches,
		// releases, broker seal and retire).
		opts.tracer = newTracer((half.warm + half.steps) * (w.SrcRanks + 3*w.MidRanks + w.SinkRanks) * 16)
		opts.timed = !w.Replay
		r := s.run(ctx, opts)
		if !r.complete() {
			continue
		}
		tracedMS = append(tracedMS, r.stepMS())
		if w.Replay {
			folds = append(folds, r.foldReplay(opts.tracer.Spans()))
		} else {
			folds = append(folds, r.fold(opts.tracer.Spans()))
		}
		lastSpans = opts.tracer
	}
	if len(folds) == 0 || len(plainMS) == 0 {
		return nil // every repetition stalled; the failed steps are already counted
	}

	for _, def := range perLayer {
		var vals []float64
		for _, L := range folds {
			if v, ok := L.m[def.Name]; ok {
				vals = append(vals, v)
			}
		}
		switch {
		case len(vals) > 0:
			res.Metrics[def.Name] = metricOf(def.Unit, vals)
		default:
			res.Metrics[def.Name] = metric{Value: iso[def.Name], Unit: def.Unit}
		}
	}
	res.Metrics["obs.trace_overhead_pct"] = metric{Unit: "%", Samples: len(tracedMS),
		Value: 100 * relDiff(median(plainMS), median(tracedMS))}
	if w.Family == famLAMMPS {
		res.Metrics["sim.step_ms"] = metricOf("ms", extra["sim.step_ms"])
		sbS, aioS, simS := median(extra["sb_s"]), median(extra["aio_s"]), median(extra["simonly_s"])
		res.Extra["sb_over_aio_pct"] = metric{Value: 100 * relDiff(aioS, sbS), Unit: "%", Samples: len(extra["aio_s"])}
		res.Extra["sb_over_simonly_pct"] = metric{Value: 100 * relDiff(simS, sbS), Unit: "%", Samples: len(extra["simonly_s"])}
	}
	if ms := extra["step_ms_without_log"]; len(ms) > 0 {
		lo, hi := spread(plainMS)
		res.Metrics["streamlog.record_tax_ms"] = metric{Unit: "ms", Samples: len(ms),
			Value: median(plainMS) - median(ms), Min: lo - median(ms), Max: hi - median(ms)}
	}
	res.Extra["step_ms_plain_half"] = metricOf("ms", plainMS)
	res.Extra["step_ms_traced_half"] = metricOf("ms", tracedMS)
	res.layerTable = folds[len(folds)-1].table()

	path := spansPath(o.tmpRoot, w.Name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lastSpans.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.layerTable += fmt.Sprintf("   spans of the last traced repetition: %s (%d spans, %d dropped)\n", path, lastSpans.Len(), lastSpans.Dropped())
	return nil
}

// simBaselines runs the two Table II comparison configurations of the
// sim_bound workload — the proxy alone with output disabled, and the
// proxy feeding the hand-written all-in-one component — and records
// their wall times beside those of sb, a plain repetition of the
// SmartBlock pipeline of the same length, together with the proxy's
// mean compute time per step when it runs alone.
func (s *session) simBaselines(ctx context.Context, sb *rep, extra map[string][]float64) error {
	w, opts := s.w, sb.opts
	total := opts.warm + opts.steps
	run := func(name string, stages []Stage) (*Result, float64, error) {
		fab, err := openFabric(wireInproc, "")
		if err != nil {
			return nil, 0, err
		}
		dctx, cancel := context.WithTimeout(ctx, w.deadline(opts))
		defer cancel()
		start := time.Now()
		res, err := runWorkflow(dctx, fab.T, w.Name+"/"+name, stages, nil)
		wall := time.Since(start).Seconds()
		if cerr := fab.Close(dctx); err == nil {
			err = cerr
		}
		return res, wall, err
	}

	simRes, simWall, err := run("sim-only", []Stage{lammpsStage("-", atomsArray, w.Rows, total, s.seed, w.SubCycles, w.SrcRanks)})
	if err != nil {
		return fmt.Errorf("sim-only run: %w", err)
	}
	aio, aioResults, err := aioStage(dumpStream, atomsArray, histBins, 2*w.MidRanks+w.SinkRanks, "vx", "vy", "vz")
	if err != nil {
		return err
	}
	_, aioWall, err := run("aio", []Stage{lammpsStage(dumpStream, atomsArray, w.Rows, total, s.seed, w.SubCycles, w.SrcRanks), aio})
	if err != nil {
		return fmt.Errorf("all-in-one run: %w", err)
	}
	for step, h := range aioResults() {
		if step < len(s.in.expect) && !s.in.expect[step].equal(h) {
			return fmt.Errorf("all-in-one run: step %d differs from the reference", step)
		}
	}
	extra["sim.step_ms"] = append(extra["sim.step_ms"], median(kernelStepMeans(simRes, "lammps")))
	extra["simonly_s"] = append(extra["simonly_s"], simWall)
	extra["aio_s"] = append(extra["aio_s"], aioWall)
	extra["sb_s"] = append(extra["sb_s"], float64(sb.exit-sb.entry)/1e9)
	return nil
}

// withoutLog runs the durable workload's pipeline with no log attached
// (which is bulk_inproc) and returns its median step time.
func (s *session) withoutLog(ctx context.Context, opts repOptions) (float64, bool) {
	plain := *s.w
	plain.Log = false
	dctx, cancel := context.WithTimeout(ctx, s.w.deadline(opts))
	defer cancel()
	r := plain.runLive(dctx, s.in, s.seed, s.tmpRoot, opts)
	if _, failed, _ := r.outcome(); failed > 0 {
		return 0, false
	}
	return r.stepMS(), true
}
