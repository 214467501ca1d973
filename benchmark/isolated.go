package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// Isolated layer timings: one layer's public functions called in a
// loop on the calling goroutine alone, on the block shape the workload
// actually moves (one source rank's block). They say what a layer can
// do by itself; the in-run numbers say what it did under contention.

// isoBudget is how long each isolated loop runs.
const isoBudget = 40 * time.Millisecond

// timeLoop calls fn until the budget is spent (at least twice, the
// first call discarded as warm-up) and returns the mean seconds per
// call.
func timeLoop(budget time.Duration, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	start := time.Now()
	n := 0
	for n < 1 || time.Since(start) < budget {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start).Seconds() / float64(n), nil
}

// isolated measures every isolated layer metric for the session's
// workload. A layer that cannot run here (no shared-memory support, no
// Unix sockets) reports 0 and the reason goes to standard error.
func (s *session) isolated() map[string]float64 {
	w := s.w
	out := map[string]float64{}
	note := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: isolated %s not measured: %v\n", name, err)
		}
	}

	// One source rank's block of the first generated array.
	rowLen := 1
	dims := s.in.dims
	if w.Family == famLAMMPS {
		dims = []Dim{{Name: "particles", Size: w.Rows}, {Name: "props", Size: 5}}
	}
	for _, d := range dims[1:] {
		rowLen *= d.Size
	}
	rows := dims[0].Size / w.SrcRanks
	data := s.in.variants[0][:rows*rowLen]
	blockDims := append([]Dim{{Name: dims[0].Name, Size: rows}}, dims[1:]...)
	mb := float64(len(data)*8) / 1e6
	names, vars := []string{"v"}, [][]float64{data}

	// adios: payload encode and decode, metadata round trip.
	buf := make([]byte, 0, adiosPayloadSize(names, vars))
	sec, err := timeLoop(isoBudget, func() error { buf = adiosEncodePayload(buf[:0], names, vars); return nil })
	note("adios.encode_mb_s", err)
	out["adios.encode_mb_s"] = rate(mb, sec)
	sec, err = timeLoop(isoBudget, func() error { _, err := adiosDecodePayload(buf); return err })
	note("adios.decode_mb_s", err)
	out["adios.decode_mb_s"] = rate(mb, sec)
	shape := make([]int, len(blockDims))
	for i, d := range blockDims {
		shape[i] = d.Size
	}
	box := partitionAlong(shape, 0, 1, 0)
	sec, err = timeLoop(isoBudget, func() error { return adiosMetaRoundTrip(7, "v", dims, box, s.in.attrs) })
	note("adios.meta_us", err)
	out["adios.meta_us"] = sec * 1e6

	// ndarray: the MxN assembly copy, dimension reduction, selection.
	block, err := arrayFrom(data, blockDims...)
	if err == nil {
		dst := newArray(blockDims...)
		zero := make([]int, len(shape))
		sec, err = timeLoop(isoBudget, func() error { return copyRegion(dst, zero, block, zero, shape) })
		out["ndarray.assemble_mb_s"] = rate(mb, sec)
	}
	note("ndarray.assemble_mb_s", err)
	if err == nil {
		last := len(shape) - 1
		sec, err = timeLoop(isoBudget, func() error { _, err := dimReduce(block, last, last-1); return err })
		note("ndarray.dimreduce_mb_s", err)
		out["ndarray.dimreduce_mb_s"] = rate(mb, sec)
		sec, err = timeLoop(isoBudget, func() error { _, err := selectIndices(block, last, []int{0}); return err })
		note("ndarray.select_mb_s", err)
		out["ndarray.select_mb_s"] = rate(mb, sec)
	}

	// components: the magnitude and histogram kernels on n x 3 vectors
	// and n values.
	n3 := len(data) / 3
	vecs, err := arrayFrom(data[:n3*3], Dim{Name: "points", Size: n3}, Dim{Name: "xyz", Size: 3})
	if err == nil {
		sec, err = timeLoop(isoBudget, func() error { _, err := magnitudeKernel(vecs); return err })
		out["components.magnitude_mb_s"] = rate(float64(n3*3*8)/1e6, sec)
	}
	note("components.magnitude_mb_s", err)
	err = runRanks(1, func(c *Comm) error {
		sec, err := timeLoop(isoBudget, func() error { _, err := computeHistogram(c, data, histBins); return err })
		out["components.histogram_mb_s"] = rate(mb, sec)
		return err
	})
	note("components.histogram_mb_s", err)

	// mpi: one scalar allreduce across the sink's rank count (two at
	// least, or there is nothing to reduce).
	ranks := max(2, w.SinkRanks)
	err = runRanks(ranks, func(c *Comm) error {
		const rounds = 2000
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := allreduceSum(c, 1); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			out["mpi.allreduce_us"] = time.Since(start).Seconds() / rounds * 1e6
		}
		return nil
	})
	note("mpi.allreduce_us", err)

	// flexpath: per wire, a tiny block's publish-to-release round trip
	// and the throughput of the workload's own block size.
	dir, err := os.MkdirTemp(s.tmpRoot, "iso-")
	if err != nil {
		note("flexpath and streamlog", err)
		return out
	}
	defer os.RemoveAll(dir)
	payload := adiosEncodePayload(nil, names, vars)
	for _, wire := range []string{wireInproc, wireTCP, wireUDS, wireShm} {
		rt, bulk, err := wireTimings(wire, dir, payload)
		note("flexpath wire "+wire, err)
		out["flexpath.roundtrip_us."+wire] = rt * 1e6
		out["flexpath.bulk_mb_s."+wire] = rate(float64(len(payload))/1e6, bulk)
	}

	// streamlog: append and view-read of whole steps of SrcRanks blocks.
	lg, err := openStreamLog(dir+"/log", "iso", w.SrcRanks)
	if err != nil {
		note("streamlog", err)
		return out
	}
	defer lg.Close()
	metas, payloads := make([][]byte, w.SrcRanks), make([][]byte, w.SrcRanks)
	for i := range metas {
		metas[i], payloads[i] = []byte("meta"), payload
	}
	stepMB := float64(w.SrcRanks*len(payload)) / 1e6
	step := 0
	sec, err = timeLoop(isoBudget, func() error { step++; return lg.Append(step-1, metas, payloads) })
	note("streamlog.append_mb_s", err)
	out["streamlog.append_mb_s"] = rate(stepMB, sec)
	if err == nil {
		read := 0
		sec, err = timeLoop(isoBudget, func() error { read++; _, err := lg.ReadView((read - 1) % step); return err })
		note("streamlog.readview_mb_s", err)
		out["streamlog.readview_mb_s"] = rate(stepMB, sec)
	}
	return out
}

func rate(mb, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return mb / sec
}

// wireTimings opens a fresh one-writer one-reader stream over the wire
// and times, on one goroutine, the publish -> step meta -> fetch ->
// release cycle: with a 64-byte block (seconds per round trip) and
// with the given payload (seconds per block).
func wireTimings(wire, dir string, payload []byte) (roundTrip, bulk float64, err error) {
	sub, err := os.MkdirTemp(dir, wire+"-")
	if err != nil {
		return 0, 0, err
	}
	fab, err := openFabric(wire, sub)
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	defer fab.Close(ctx)
	if fab.Wire != wire {
		return 0, 0, fmt.Errorf("wire %s unavailable (fell back to %s)", wire, fab.Wire)
	}
	bw, err := fab.T.AttachWriter("iso", 0, 1, 0)
	if err != nil {
		return 0, 0, err
	}
	defer bw.Close()
	br, err := fab.T.AttachReader("iso", 0, 1)
	if err != nil {
		return 0, 0, err
	}
	defer br.Close()
	step := 0
	cycle := func(p []byte) func() error {
		return func() error {
			k := step
			step++
			if err := bw.PublishBlock(ctx, k, []byte("meta"), p); err != nil {
				return err
			}
			if _, err := br.StepMeta(ctx, k); err != nil {
				return err
			}
			if _, err := br.FetchBlock(ctx, k, 0); err != nil {
				return err
			}
			return br.ReleaseStep(k)
		}
	}
	if roundTrip, err = timeLoop(isoBudget, cycle(make([]byte, 64))); err != nil {
		return 0, 0, err
	}
	bulk, err = timeLoop(isoBudget, cycle(payload))
	return roundTrip, bulk, err
}
