package cost

import "math"

// Model is the analytic queue/transfer model the planner scores
// candidate plans with. A stage's per-step wall time at R ranks is
//
//	T(R) = F + P/R + c·R
//
// where P is the parallelizable work (the kernel summed over ranks
// plus the stage's transfer volume over its transport), c the per-rank
// coordination overhead of one step (attach bookkeeping, per-block
// metadata, partition assembly), and F the fixed remainder fitted at
// the measured point. P/R falls, c·R grows — so T has a genuine
// minimum, and the strong-scaling curve flattens into the knee the
// Fig. 10 data shows past 4–6 ranks.
type Model struct {
	// Bandwidth maps a transport kind to its effective payload
	// bandwidth in bytes/second. Kinds absent from the map use a
	// conservative cross-node default.
	Bandwidth map[string]float64
	// PerRankNs is c: the per-rank per-step coordination overhead.
	PerRankNs float64
	// MinFixedNs floors the fitted fixed term, so a noisy measurement
	// cannot fit a negative overhead.
	MinFixedNs float64
}

// DefaultModel returns the model used when the caller supplies none.
// The bandwidth ordering is inproc > shm > uds > tcp; on the repository
// benchmark the bulk_uds workload takes ~2.5× the step time of
// bulk_inproc for the same bytes. The absolute values are deliberately
// round — the planner's decisions depend on ordering and
// knee position, which tolerate 2× bandwidth error.
func DefaultModel() Model {
	return Model{
		Bandwidth: map[string]float64{
			"inproc": 12e9,
			"shm":    8e9,
			"uds":    3e9,
			"tcp":    1.5e9,
		},
		PerRankNs:  40e3,
		MinFixedNs: 20e3,
	}
}

// bw returns the effective bandwidth for a transport kind.
func (m Model) bw(kind string) float64 {
	if v, ok := m.Bandwidth[kind]; ok && v > 0 {
		return v
	}
	return 1e9
}

// TransferNs predicts moving bytes of payload over a transport kind in
// one step.
func (m Model) TransferNs(bytes float64, kind string) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / m.bw(kind) * 1e9
}

// Predict returns the modeled per-step wall time of a stage run at R
// ranks, with transferNs the per-step cost of moving the stage's input
// and output volume (see TransferNs). The fixed term is fitted at the
// stage's measured point: measured = F + P/Rm + c·Rm solved for F.
func (m Model) Predict(st *Stage, transferNs float64, ranks int) float64 {
	if ranks < 1 {
		ranks = 1
	}
	p := st.KernelNsPerStep + transferNs
	return m.fixed(st, p) + p/float64(ranks) + m.PerRankNs*float64(ranks)
}

// fixed fits F from the stage's measured point, floored at MinFixedNs.
func (m Model) fixed(st *Stage, p float64) float64 {
	if st.Ranks <= 0 || st.StepNsPerStep <= 0 {
		return m.MinFixedNs
	}
	rm := float64(st.Ranks)
	f := st.StepNsPerStep - p/rm - m.PerRankNs*rm
	if f < m.MinFixedNs {
		return m.MinFixedNs
	}
	return f
}

// Candidate is one rank count's predicted per-step cost.
type Candidate struct {
	Ranks       int
	PredictedNs float64
}

// Knee sweeps rank counts 1..maxRanks and returns the scaling knee:
// the smallest rank count whose predicted cost is within tol of the
// best candidate's. This is the "stop where the curve flattens" rule —
// past the knee, extra ranks buy less than tol improvement, exactly
// the flattening the Fig. 10 strong-scaling data shows. The full
// candidate sweep is returned for explain output.
func (m Model) Knee(st *Stage, transferNs float64, maxRanks int, tol float64) (int, []Candidate) {
	if maxRanks < 1 {
		maxRanks = 1
	}
	if tol < 0 {
		tol = 0
	}
	cands := make([]Candidate, maxRanks)
	best := math.Inf(1)
	for r := 1; r <= maxRanks; r++ {
		t := m.Predict(st, transferNs, r)
		cands[r-1] = Candidate{Ranks: r, PredictedNs: t}
		if t < best {
			best = t
		}
	}
	for _, c := range cands {
		if c.PredictedNs <= best*(1+tol) {
			return c.Ranks, cands
		}
	}
	return maxRanks, cands
}
