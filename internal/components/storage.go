package components

import (
	"fmt"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/mpi"
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
	l := sb.NewLoop(env, "file-writer")
	defer l.Close()
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
	if _, err := l.Reader(f.InStream); err != nil {
		return err
	}
	err := l.Run(func(s *sb.Step) error {
		v, box, block, err := s.Read(0, f.InArray)
		if err != nil {
			return err
		}
		s.BytesOut = s.BytesIn
		meta := adios.EncodeMeta(&adios.BlockMeta{
			Step:  s.N,
			Vars:  []adios.VarMeta{{Name: f.InArray, GlobalDims: v.Dims, Box: box}},
			Attrs: s.Info[0].Attrs,
		})
		payload := adios.EncodePayload([]string{f.InArray}, [][]float64{block.Data()})
		blobs, err := mpi.Gather(env.Comm, [2][]byte{meta, payload}, 0)
		if err != nil || store == nil || s.N < lg.NextStep() {
			return err
		}
		metas, payloads := make([][]byte, size), make([][]byte, size)
		for i, b := range blobs {
			metas[i], payloads[i] = b[0], b[1]
		}
		return lg.Append(s.N, metas, payloads)
	})
	if err != nil || store == nil {
		return err
	}
	if err := lg.AppendEnd(lg.NextStep() - 1); err != nil {
		return fmt.Errorf("file-writer: %w", err)
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("file-writer: %w", err)
	}
	return nil
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
// the recording one's. A restarted rank resumes the recording at the
// step its writer publishes next.
func (f *FileReader) Run(env *sb.Env) error {
	src, err := flexpath.OpenLogSource(f.Dir)
	if err != nil {
		return fmt.Errorf("file-reader: %w", err)
	}
	defer src.Close()
	l := sb.NewLoop(env, "file-reader")
	defer l.Close()
	streams := src.Streams()
	if len(streams) != 1 {
		return fmt.Errorf("file-reader: %s holds %d recorded streams %v, want exactly one", f.Dir, len(streams), streams)
	}
	w, err := l.Writer(f.OutStream)
	if err != nil {
		return err
	}
	br, err := src.OpenReaderFrom(streams[0], w.Steps())
	if err != nil {
		return fmt.Errorf("file-reader: %w", err)
	}
	l.AddReader(streams[0], adios.NewReaderAt(br, br.NextStep()))
	return l.Run(func(s *sb.Step) error {
		if len(s.Info[0].Vars) != 1 {
			return fmt.Errorf("recording holds %d variables, want 1", len(s.Info[0].Vars))
		}
		v := s.Info[0].Vars[0]
		box, err := s.Partition(v)
		if err != nil {
			return err
		}
		block, err := s.ReadBox(0, v.Name, box)
		if err != nil {
			return err
		}
		s.BytesOut = s.BytesIn
		return s.Publish(w, s.N, v.Name, v.Dims, box, block.Data(), s.Info[0].Attrs)
	})
}

func init() {
	Register("file-writer", NewFileWriter)
	Register("file-reader", NewFileReader)
}
