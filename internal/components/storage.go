package components

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/ndarray"
	"repro/internal/sb"
	"repro/internal/streamlog"
)

const (
	fileWriterUsage = "input-stream-name input-array-name output-dir"
	fileReaderUsage = "input-dir output-stream-name"
)

// The paper's components are "limited to in situ workflows with all
// components running simultaneously. However, introducing new components
// that write and read from storage as part of a workflow can break that
// dependency" (§VI). FileWriter and FileReader are that pair: a stage
// can persist a stream to disk and a later (even separately launched)
// stage can replay it. The directory is a stream-log store
// (internal/streamlog), the one on-disk format the broker's journal and
// sbreplay also write, so sbreplay -ls lists it and replays from it.

// FileWriter records a stream into a stream-log store.
type FileWriter struct {
	InStream, InArray string
	Dir               string
}

// NewFileWriter parses: input-stream input-array output-dir.
func NewFileWriter(args []string) (sb.Component, error) {
	if len(args) != 3 {
		return nil, &sb.UsageError{Component: "file-writer", Usage: fileWriterUsage,
			Problem: fmt.Sprintf("need exactly 3 arguments, got %d", len(args))}
	}
	return &FileWriter{InStream: args[0], InArray: args[1], Dir: args[2]}, nil
}

// Name implements sb.Component.
func (f *FileWriter) Name() string { return "file-writer" }

// Run implements sb.Component: each rank reads and encodes its own
// partition of every step, and rank 0 gathers the blocks and appends
// them as one step record to the store's log of the input stream. Steps
// the log already holds are not appended again, so a restarted writer
// resumes the recording.
func (f *FileWriter) Run(env *sb.Env) error {
	if env.Metrics != nil {
		env.Metrics.MarkStarted()
		defer env.Metrics.MarkFinished()
	}
	rank, size := env.Comm.Rank(), env.Comm.Size()
	var store *streamlog.Store // rank 0's; nil on the other ranks
	var lg *streamlog.Log
	if rank == 0 {
		var err error
		if store, err = streamlog.OpenStore(f.Dir, streamlog.Options{}); err != nil {
			return fmt.Errorf("file-writer: %w", err)
		}
		defer store.Close()
		if lg, err = store.Log(f.InStream); err != nil {
			return fmt.Errorf("file-writer: %w", err)
		}
		if err := lg.SetConfig(streamlog.Config{WriterSize: size, QueueDepth: flexpath.DefaultQueueDepth}); err != nil {
			return fmt.Errorf("file-writer: %w", err)
		}
	}
	r, err := env.OpenReader(f.InStream)
	if err != nil {
		return fmt.Errorf("file-writer: attaching reader to %q: %w", f.InStream, err)
	}
	defer r.Close()
	for {
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			if store == nil {
				return nil
			}
			if err := lg.AppendEnd(lg.NextStep() - 1); err != nil {
				return fmt.Errorf("file-writer: %w", err)
			}
			if err := store.Close(); err != nil {
				return fmt.Errorf("file-writer: %w", err)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("file-writer: %w", err)
		}
		step := info.Step
		begin := time.Now() // active time: excludes waiting for the producer
		v, ok := info.Var(f.InArray)
		if !ok {
			return fmt.Errorf("file-writer: step %d of stream %q has no array %q", step, f.InStream, f.InArray)
		}
		axis, err := sb.ChooseAxis(v.Shape())
		if err != nil {
			return fmt.Errorf("file-writer: step %d: %w", step, err)
		}
		box := ndarray.PartitionAlong(v.Shape(), axis, size, rank)
		block, err := r.ReadBox(env.Ctx(), f.InArray, box)
		if err != nil {
			return fmt.Errorf("file-writer: step %d: %w", step, err)
		}
		meta := adios.EncodeMeta(&adios.BlockMeta{
			Step:  step,
			Vars:  []adios.VarMeta{{Name: f.InArray, GlobalDims: v.Dims, Box: box}},
			Attrs: info.Attrs,
		})
		payload := adios.EncodePayload([]string{f.InArray}, [][]float64{block.Data()})
		blobs, err := mpi.Gather(env.Comm, [2][]byte{meta, payload}, 0)
		if err != nil {
			return fmt.Errorf("file-writer: step %d: %w", step, err)
		}
		if store != nil && step >= lg.NextStep() {
			metas, payloads := make([][]byte, size), make([][]byte, size)
			for i, b := range blobs {
				metas[i], payloads[i] = b[0], b[1]
			}
			if err := lg.Append(step, metas, payloads); err != nil {
				return fmt.Errorf("file-writer: step %d: %w", step, err)
			}
		}
		if err := r.EndStep(); err != nil {
			return fmt.Errorf("file-writer: step %d: %w", step, err)
		}
		if env.Metrics != nil {
			n := int64(block.Size() * 8)
			env.Metrics.RecordStep(step, time.Since(begin), n, n)
		}
	}
}

// FileReader replays a directory recorded by FileWriter onto a stream.
type FileReader struct {
	Dir       string
	OutStream string
}

// NewFileReader parses: input-dir output-stream.
func NewFileReader(args []string) (sb.Component, error) {
	if len(args) != 2 {
		return nil, &sb.UsageError{Component: "file-reader", Usage: fileReaderUsage,
			Problem: fmt.Sprintf("need exactly 2 arguments, got %d", len(args))}
	}
	return &FileReader{Dir: args[0], OutStream: args[1]}, nil
}

// Name implements sb.Component.
func (f *FileReader) Name() string { return "file-reader" }

// Run implements sb.Component: every rank opens the recording, which
// must hold exactly one stream, reads its own partition of each step's
// array through the ordinary M×N path and republishes it with the
// step's attributes, so the replaying group's size is independent of
// the recording one's.
func (f *FileReader) Run(env *sb.Env) error {
	if env.Metrics != nil {
		env.Metrics.MarkStarted()
		defer env.Metrics.MarkFinished()
	}
	src, err := flexpath.OpenLogSource(f.Dir)
	if err != nil {
		return fmt.Errorf("file-reader: %w", err)
	}
	defer src.Close()
	streams := src.Streams()
	if len(streams) != 1 {
		return fmt.Errorf("file-reader: %s holds %d recorded streams %v, want exactly one", f.Dir, len(streams), streams)
	}
	rank, size := env.Comm.Rank(), env.Comm.Size()
	br, err := src.AttachReader(streams[0], rank, size)
	if err != nil {
		return fmt.Errorf("file-reader: %w", err)
	}
	r := adios.NewReader(br)
	defer r.Close()
	w, err := env.OpenWriter(f.OutStream)
	if err != nil {
		return fmt.Errorf("file-reader: attaching writer to %q: %w", f.OutStream, err)
	}
	defer w.Close()
	for {
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("file-reader: %w", err)
		}
		step := info.Step
		begin := time.Now()
		if len(info.Vars) != 1 {
			return fmt.Errorf("file-reader: step %d holds %d variables, want 1", step, len(info.Vars))
		}
		v := info.Vars[0]
		axis, err := sb.ChooseAxis(v.Shape())
		if err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		box := ndarray.PartitionAlong(v.Shape(), axis, size, rank)
		block, err := r.ReadBox(env.Ctx(), v.Name, box)
		if err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		if err := w.BeginStep(); err != nil {
			return err
		}
		for k, val := range info.Attrs {
			if err := w.SetAttribute(k, val); err != nil {
				return err
			}
		}
		if err := w.Write(v.Name, v.Dims, box, block.Data()); err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		if err := w.EndStep(env.Ctx()); err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		if err := r.EndStep(); err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		if env.Metrics != nil {
			n := int64(block.Size() * 8)
			env.Metrics.RecordStep(step, time.Since(begin), n, n)
		}
	}
}

func init() {
	Register("file-writer", NewFileWriter)
	Register("file-reader", NewFileReader)
}
