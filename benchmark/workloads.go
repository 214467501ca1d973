package main

import (
	"math/rand"
	"time"
)

// A workload is one fixed pipeline with one fixed input shape. Names,
// shapes and step counts are constants of the benchmark: they are the
// same on every commit, so a slower system is measured doing the same
// work, never less of it. The -seed flag only selects the values inside
// the generated arrays.

const histBins = 16

// Pipeline families.
const (
	famAtoms  = "atoms"  // synthetic atoms x 3 -> magnitude -> histogram
	famGTCP   = "gtcp"   // synthetic slices x points x 7 -> select -> dim-reduce x2 -> histogram
	famLAMMPS = "lammps" // LAMMPS proxy -> select -> magnitude -> histogram
)

// gtcpQuantities labels the last axis of the GTCP-shaped array. The
// chain selects the three at gtcpPick (the paper's workflow selects
// one; three keep the later hops' transforms from vanishing next to the
// first hop's seven-quantity read — see README.md, calibration).
var gtcpQuantities = []string{"density", "temp_par", "temp_perp", "pressure_par", "pressure_perp", "flux", "potential"}

var gtcpPick = []int{3, 4, 5} // pressure_par, pressure_perp, flux

// nVariants is how many distinct arrays a synthetic source cycles
// through, so consecutive steps (and the queue's whole window) differ.
const nVariants = 4

type workload struct {
	Name string
	Why  string

	Family    string
	Wire      string // wire the fabric is asked for
	Log       bool   // broker journals every step to a stream log
	Replay    bool   // timed part is an offline replay of a recording
	Rows      int    // atoms, particles or toroidal slices
	Points    int    // gridpoints per slice (gtcp family)
	SubCycles int    // integration cycles per output step (lammps family)
	SrcRanks  int
	MidRanks  int // ranks of every system stage between source and sink
	SinkRanks int

	Warm  int // steps discarded at the start of each repetition
	Steps int // measured steps per repetition

	// RepSeconds is the calibrated wall time of one repetition on the
	// 2-core reference host; a repetition is given three times this
	// before it is declared stalled.
	RepSeconds float64
}

func (w *workload) total() int { return w.Warm + w.Steps }

// ranks is how many goroutine ranks the workload runs at once: the
// source's, the sink's, and MidRanks for each system stage in between.
func (w *workload) ranks() int {
	systemStages := 1 // atoms: magnitude
	switch w.Family {
	case famGTCP:
		systemStages = 3 // select, dim-reduce, dim-reduce
	case famLAMMPS:
		systemStages = 2 // select, magnitude
	}
	return w.SrcRanks + systemStages*w.MidRanks + w.SinkRanks
}

// bytesPerStep is what the source publishes each step.
func (w *workload) bytesPerStep() int64 {
	switch w.Family {
	case famGTCP:
		return int64(w.Rows) * int64(w.Points) * int64(len(gtcpQuantities)) * 8
	case famLAMMPS:
		return int64(w.Rows) * 5 * 8
	}
	return int64(w.Rows) * 3 * 8
}

// workloads is the fixed set. Sizes were calibrated once on the 2-core
// reference host so that a repetition takes about a second and several
// fit the run length declared in BENCHMARK.json; README.md records the
// calibration and the measured share of the layer each workload is
// meant to stress.
var workloads = []*workload{
	{
		Name:   "sim_bound",
		Why:    "LAMMPS proxy dominates the step (Table II regime): fabric and codec work should not move it, overlap and queueing do",
		Family: famLAMMPS, Wire: wireInproc, Rows: 32768, SubCycles: 50,
		SrcRanks: 4, MidRanks: 1, SinkRanks: 1,
		Warm: 2, Steps: 32, RepSeconds: 2.5,
	},
	{
		Name:   "bulk_inproc",
		Why:    "6 MB steps from a zero-compute source in one address space: encode, decode, pooling, 3-to-2 box assembly and broker hand-off dominate",
		Family: famAtoms, Wire: wireInproc, Rows: 262144,
		SrcRanks: 3, MidRanks: 2, SinkRanks: 1,
		Warm: 10, Steps: 150, RepSeconds: 1.5,
	},
	{
		Name:   "bulk_uds",
		Why:    "the same pipeline and bytes over a Unix socket: framing, CRC and socket copies dominate, isolating what a wire costs",
		Family: famAtoms, Wire: wireUDS, Rows: 262144,
		SrcRanks: 3, MidRanks: 2, SinkRanks: 1,
		Warm: 10, Steps: 100, RepSeconds: 2.5,
	},
	{
		Name:   "small_steps",
		Why:    "24 KB steps by the thousand: per-step fixed cost (step loop, seal/release/retire, meta codec, reduce, hand-offs) dominates, bytes do not",
		Family: famAtoms, Wire: wireInproc, Rows: 1024,
		SrcRanks: 3, MidRanks: 2, SinkRanks: 2,
		Warm: 500, Steps: 10000, RepSeconds: 1.5,
	},
	{
		Name:   "gtcp_chain",
		Why:    "four hops over a 3-D array repartitioned on a different axis per hop (Table I / Fig. 9 shape): ndarray transforms and kernels dominate",
		Family: famGTCP, Wire: wireInproc, Rows: 32, Points: 4096,
		SrcRanks: 2, MidRanks: 2, SinkRanks: 1,
		Warm: 10, Steps: 100, RepSeconds: 2,
	},
	{
		Name:   "durable_record",
		Why:    "bulk_inproc with the broker journaling every step to a stream log (no fsync): the log's append path",
		Family: famAtoms, Wire: wireInproc, Log: true, Rows: 262144,
		SrcRanks: 3, MidRanks: 2, SinkRanks: 1,
		Warm: 10, Steps: 100, RepSeconds: 2.5,
	},
	{
		Name:   "replay_read",
		Why:    "offline replay of the magnitude stage against a recording of bulk_inproc: the log's read path, so an append-side gain that costs readers shows",
		Family: famAtoms, Wire: wireInproc, Log: true, Replay: true, Rows: 262144,
		SrcRanks: 3, MidRanks: 2, SinkRanks: 1,
		Warm: 10, Steps: 100, RepSeconds: 1.5,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// input is what a seed generates for a workload: the arrays the source
// publishes and the histogram the reference expects for each.
type input struct {
	dims     []Dim
	attrs    map[string]string
	variants [][]float64
	expect   []refHistogram
	// baselineStepMS is the plain single-threaded analysis time per
	// step, measured while computing expect.
	baselineStepMS float64
}

// generate builds the synthetic families' input from the seed. The
// lammps family's arrays come from the proxy itself (see captureSim).
func (w *workload) generate(seed int64) *input {
	rng := rand.New(rand.NewSource(seed))
	in := &input{}
	cols := 3
	switch w.Family {
	case famAtoms:
		in.dims = []Dim{{Name: "atoms", Size: w.Rows}, {Name: "xyz", Size: 3}}
	case famGTCP:
		cols = len(gtcpQuantities)
		in.dims = []Dim{{Name: "slices", Size: w.Rows}, {Name: "points", Size: w.Points}, {Name: "quantities", Size: cols}}
		in.attrs = map[string]string{headerAttr("quantities"): joinList(gtcpQuantities)}
	default:
		panic("generate: the " + w.Family + " family has no synthetic input")
	}
	n := 1
	for _, d := range in.dims {
		n *= d.Size
	}
	for v := 0; v < nVariants; v++ {
		a := make([]float64, n)
		scale := 1 + 0.25*float64(v)
		for i := range a {
			a[i] = scale * rng.NormFloat64()
		}
		in.variants = append(in.variants, a)
	}
	in.reference(w.Family, cols)
	return in
}

// reference computes the expected histogram of every array in
// in.variants with the plain single-threaded code of reference.go.
func (in *input) reference(family string, cols int) {
	start := time.Now()
	in.expect = in.expect[:0]
	for _, a := range in.variants {
		var vals []float64
		switch family {
		case famAtoms:
			vals = magnitudesOf(a, cols, []int{0, 1, 2})
		case famGTCP:
			vals = columnsOf(a, cols, gtcpPick)
		case famLAMMPS:
			vals = magnitudesOf(a, cols, []int{2, 3, 4}) // vx, vy, vz of ID, Type, vx, vy, vz
		}
		in.expect = append(in.expect, histogramOf(vals, histBins))
	}
	in.baselineStepMS = time.Since(start).Seconds() * 1e3 / float64(len(in.variants))
}

// Stream and array names of the pipelines.
const (
	atomsStream, atomsArray = "atoms.fp", "atoms"
	velosStream, velosArray = "velos.fp", "velos"
	dumpStream              = "dump.fp"
)

// pipeline is a workload's stage list wired to one repetition's
// recorder.
type pipeline struct {
	stages    []Stage
	snk       *sink
	tapStream string // set when the producer is the system's own and a stampTransport must note its publishes
	srcStream string
}

// build wires the workload's stages for a run of total steps.
func (w *workload) build(in *input, rec *recorder, total int, seed int64) pipeline {
	snk := &sink{bins: histBins, expect: in.expect, rec: rec}
	src := &source{dims: in.dims, attrs: in.attrs, variants: in.variants, steps: total, rec: rec}
	p := pipeline{snk: snk}
	switch w.Family {
	case famAtoms:
		src.stream, src.array = atomsStream, atomsArray
		snk.stream, snk.array = velosStream, velosArray
		p.srcStream = atomsStream
		p.stages = []Stage{
			own(src, w.SrcRanks),
			magnitudeStage(w.MidRanks),
			own(snk, w.SinkRanks),
		}
	case famGTCP:
		src.stream, src.array = "gtcp.fp", "grid"
		snk.stream, snk.array = "flat.fp", "pressures"
		p.srcStream = "gtcp.fp"
		p.stages = []Stage{
			own(src, w.SrcRanks),
			stage("select", w.MidRanks, append([]string{"gtcp.fp", "grid", "2", "psel.fp", "press"}, picked(gtcpQuantities, gtcpPick)...)...),
			stage("dim-reduce", w.MidRanks, "psel.fp", "press", "2", "1", "dr1.fp", "press2"),
			stage("dim-reduce", w.MidRanks, "dr1.fp", "press2", "0", "1", "flat.fp", "pressures"),
			own(snk, w.SinkRanks),
		}
	case famLAMMPS:
		snk.stream, snk.array = velosStream, velosArray
		p.srcStream, p.tapStream = dumpStream, dumpStream
		p.stages = []Stage{
			lammpsStage(dumpStream, atomsArray, w.Rows, total, seed, w.SubCycles, w.SrcRanks),
			stage("select", w.MidRanks, dumpStream, atomsArray, "1", "sel.fp", "lmpsel", "vx", "vy", "vz"),
			stage("magnitude", w.MidRanks, "sel.fp", "lmpsel", velosStream, velosArray),
			own(snk, w.SinkRanks),
		}
	}
	return p
}

func picked(names []string, idx []int) []string {
	out := make([]string, len(idx))
	for i, k := range idx {
		out[i] = names[k]
	}
	return out
}

func magnitudeStage(ranks int) Stage {
	return stage("magnitude", ranks, atomsStream, atomsArray, velosStream, velosArray)
}
