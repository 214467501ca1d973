// Package gromacs is a synthetic stand-in for GROMACS, the biomolecular
// dynamics code driving the paper's third workflow (§V-A): "Among other
// quantities, GROMACS outputs the three-dimensional coordinates of the
// atoms involved in the simulation at regular intervals. The data array
// itself is two-dimensional: 3D coordinates over all atoms. From these,
// we obtain a histogram of the distances of the atoms from the origin
// for each timestep, showing an evolution of the spread of the particles
// throughout the simulation."
//
// The mini-app integrates a cluster of atoms initialized near the origin
// under a soft short-range repulsion (cell-binned, so it stays O(N)), a
// weak confining potential and Langevin noise; the ensemble diffuses
// outward so the |x| histogram visibly spreads across timesteps — the
// property the workflow's output is meant to show.
package gromacs

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/adios"
	"repro/internal/components"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

const usage = "output-stream-name output-array-name num-atoms num-steps [seed] [subcycles]"

// Coords is the coordinate header, in output column order.
var Coords = []string{"x", "y", "z"}

// Sim is the diffusion mini-app configured for one run.
type Sim struct {
	Stream string // output stream name; "-" disables output
	Array  string
	Atoms  int
	Steps  int
	Seed   int64

	SubCycles int
	Dt        float64
}

// New returns a Sim with the reference physics parameters.
func New(stream, array string, atoms, steps int, seed int64) *Sim {
	return &Sim{
		Stream: stream, Array: array,
		Atoms: atoms, Steps: steps, Seed: seed,
		SubCycles: 4, Dt: 0.01,
	}
}

// NewFromArgs parses: output-stream output-array num-atoms num-steps
// [seed] [subcycles]; subcycles sets the fine-grained integration cycles
// per output timestep.
func NewFromArgs(args []string) (sb.Component, error) {
	if len(args) < 4 || len(args) > 6 {
		return nil, &sb.UsageError{Component: "gromacs", Usage: usage,
			Problem: fmt.Sprintf("need 4 to 6 arguments, got %d", len(args))}
	}
	atoms, err := strconv.Atoi(args[2])
	if err != nil || atoms <= 0 {
		return nil, &sb.UsageError{Component: "gromacs", Usage: usage,
			Problem: fmt.Sprintf("num-atoms %q is not a positive integer", args[2])}
	}
	steps, err := strconv.Atoi(args[3])
	if err != nil || steps <= 0 {
		return nil, &sb.UsageError{Component: "gromacs", Usage: usage,
			Problem: fmt.Sprintf("num-steps %q is not a positive integer", args[3])}
	}
	var seed int64 = 1
	if len(args) >= 5 {
		s, err := strconv.ParseInt(args[4], 10, 64)
		if err != nil {
			return nil, &sb.UsageError{Component: "gromacs", Usage: usage,
				Problem: fmt.Sprintf("seed %q is not an integer", args[4])}
		}
		seed = s
	}
	sim := New(args[0], args[1], atoms, steps, seed)
	if len(args) == 6 {
		sc, err := strconv.Atoi(args[5])
		if err != nil || sc <= 0 {
			return nil, &sb.UsageError{Component: "gromacs", Usage: usage,
				Problem: fmt.Sprintf("subcycles %q is not a positive integer", args[5])}
		}
		sim.SubCycles = sc
	}
	return sim, nil
}

// Name implements sb.Component.
func (s *Sim) Name() string { return "gromacs" }

// Run implements sb.Component: each rank owns a contiguous range of
// atoms and publishes its (ownAtoms × 3) coordinate block per timestep.
func (s *Sim) Run(env *sb.Env) error {
	if env.Metrics != nil {
		env.Metrics.MarkStarted()
		defer env.Metrics.MarkFinished()
	}
	rank, size := env.Comm.Rank(), env.Comm.Size()
	offset, count := ndarray.Partition1D(s.Atoms, size, rank)

	pos := make([]float64, count*3)
	vel := make([]float64, count*3)
	rng := rand.New(rand.NewSource(s.Seed + int64(rank)*30011))
	for i := 0; i < count; i++ {
		// Dense initial droplet of radius ~1.
		r := math.Cbrt(rng.Float64())
		theta := math.Acos(2*rng.Float64() - 1)
		phi := 2 * math.Pi * rng.Float64()
		pos[i*3+0] = r * math.Sin(theta) * math.Cos(phi)
		pos[i*3+1] = r * math.Sin(theta) * math.Sin(phi)
		pos[i*3+2] = r * math.Cos(theta)
		for c := 0; c < 3; c++ {
			vel[i*3+c] = 0.1 * rng.NormFloat64()
		}
	}

	var w *adios.Writer
	if s.Stream != "-" {
		group, depth, err := writerGroup(s.Array)
		if err != nil {
			return err
		}
		w, err = env.OpenWriterGroup(s.Stream, group, depth)
		if err != nil {
			return fmt.Errorf("gromacs: attaching writer to %q: %w", s.Stream, err)
		}
		defer w.Close()
		w.SetStickyAttribute(components.HeaderAttr("coords"), adios.JoinList(Coords))
	}

	globalDims := []ndarray.Dim{
		{Name: "atoms", Size: s.Atoms},
		{Name: "coords", Size: 3},
	}
	box := ndarray.Box{Offsets: []int{offset, 0}, Counts: []int{count, 3}}

	subCycles := s.SubCycles
	if subCycles <= 0 {
		subCycles = 1
	}
	var scr integrateScratch // per-rank: Run is invoked once per rank
	for step := 0; step < s.Steps; step++ {
		begin := time.Now()
		for sub := 0; sub < subCycles; sub++ {
			s.integrate(pos, vel, count, rng, &scr)
		}
		if w != nil {
			if err := w.BeginStep(); err != nil {
				return err
			}
			if err := w.Write(s.Array, globalDims, box, pos); err != nil {
				return fmt.Errorf("gromacs: step %d: %w", step, err)
			}
			if err := w.EndStep(env.Ctx()); err != nil {
				return fmt.Errorf("gromacs: step %d: %w", step, err)
			}
		}
		if env.Metrics != nil {
			env.Metrics.RecordStep(step, time.Since(begin), 0, int64(len(pos)*8))
		}
	}
	return nil
}

type cellKey [3]int32

// integrateScratch holds one rank's reusable cell-binning state so the
// per-step map and key slice are allocated once per run, not per cycle.
type integrateScratch struct {
	cells map[cellKey][4]float64 // sum x,y,z and count
	keys  []cellKey
}

// integrate advances one Langevin cycle: soft repulsion between atoms in
// the same spatial cell, a weak confining spring, friction, and thermal
// noise. Cell binning keeps the pair term approximately linear in N.
func (s *Sim) integrate(pos, vel []float64, n int, rng *rand.Rand, scr *integrateScratch) {
	const (
		friction  = 0.2
		noise     = 0.6
		confining = 0.002
		repulse   = 0.5
		cellSize  = 0.5
	)
	dt := s.Dt
	// Bin atoms into cells; repulsion acts between cell-mates against the
	// cell's centroid — a cheap surrogate for short-range pair forces
	// with the same outward-pressure effect.
	if scr.cells == nil {
		scr.cells = make(map[cellKey][4]float64, n/2+1)
	} else {
		clear(scr.cells)
	}
	if cap(scr.keys) < n {
		scr.keys = make([]cellKey, n)
	}
	cells := scr.cells
	keys := scr.keys[:n]
	for i := 0; i < n; i++ {
		k := cellKey{
			int32(math.Floor(pos[i*3+0] / cellSize)),
			int32(math.Floor(pos[i*3+1] / cellSize)),
			int32(math.Floor(pos[i*3+2] / cellSize)),
		}
		keys[i] = k
		agg := cells[k]
		agg[0] += pos[i*3+0]
		agg[1] += pos[i*3+1]
		agg[2] += pos[i*3+2]
		agg[3]++
		cells[k] = agg
	}
	sqrtDt := math.Sqrt(dt)
	for i := 0; i < n; i++ {
		agg := cells[keys[i]]
		cnt := agg[3]
		for c := 0; c < 3; c++ {
			x := pos[i*3+c]
			f := -confining * x
			if cnt > 1 {
				centroid := agg[c] / cnt
				f += repulse * (x - centroid) * (cnt - 1)
			}
			v := vel[i*3+c]
			v += dt * (f - friction*v)
			v += noise * sqrtDt * rng.NormFloat64()
			vel[i*3+c] = v
			pos[i*3+c] = x + dt*v
		}
	}
}

func init() { components.Register("gromacs", NewFromArgs) }

// Ports implements sb.PortDeclarer: the simulation drives the workflow,
// publishing its position array (nothing when output is disabled).
func (s *Sim) Ports() []sb.Port {
	if s.Stream == "-" {
		return nil
	}
	return []sb.Port{{Dir: sb.PortOut, Stream: s.Stream, Array: s.Array}}
}
