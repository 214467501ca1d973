package components

import (
	"fmt"

	"repro/internal/adios"
	"repro/internal/sb"
)

const forkUsage = "input-stream-name input-array-name output-stream-1 [output-stream-2] ..."

// Fork republishes one input stream on several output streams, keeping
// the array name, global layout and attributes intact. It is the "Fork
// component that would permit the creation of much richer workflows
// described by directed acyclic graphs" from the paper's future work
// (§VI), built on the equivalent of ADIOS's multiple write groups.
type Fork struct {
	InStream, InArray string
	OutStreams        []string
}

// NewFork parses: input-stream input-array out-stream....
func NewFork(args []string) (sb.Component, error) {
	if len(args) < 3 {
		return nil, &sb.UsageError{Component: "fork", Usage: forkUsage,
			Problem: fmt.Sprintf("need at least 3 arguments, got %d", len(args))}
	}
	seen := map[string]bool{args[0]: true}
	for _, out := range args[2:] {
		if seen[out] {
			return nil, &sb.UsageError{Component: "fork", Usage: forkUsage,
				Problem: fmt.Sprintf("stream %q repeated (outputs must be distinct from each other and the input)", out)}
		}
		seen[out] = true
	}
	return &Fork{InStream: args[0], InArray: args[1], OutStreams: append([]string(nil), args[2:]...)}, nil
}

// Name implements sb.Component.
func (f *Fork) Name() string { return "fork" }

// Run implements sb.Component: each rank reads its partition of a step
// and publishes it on every output.
func (f *Fork) Run(env *sb.Env) error {
	l := sb.NewLoop(env, "fork")
	defer l.Close()
	if _, err := l.Reader(f.InStream); err != nil {
		return err
	}
	writers := make([]*adios.Writer, len(f.OutStreams))
	for i, name := range f.OutStreams {
		w, err := l.Writer(name)
		if err != nil {
			return err
		}
		writers[i] = w
	}
	return l.Run(func(s *sb.Step) error {
		v, box, block, err := s.Read(0, f.InArray)
		if err != nil {
			return err
		}
		for _, w := range writers {
			if err := s.Publish(w, s.N, f.InArray, v.Dims, box, block.Data(), s.Info[0].Attrs); err != nil {
				return err
			}
		}
		s.BytesOut = s.BytesIn * int64(len(writers))
		return nil
	})
}

func init() { Register("fork", NewFork) }
