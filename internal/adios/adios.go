// Package adios is the self-describing data layer of this SmartBlock
// reproduction, modeled on the Adaptable I/O System interface the paper
// builds on (Lofstead et al., IPDPS 2009). It gives workflow components
// the two properties SmartBlock leans on (§III, §IV):
//
//   - Self-description: every timestep travels with its variables' names,
//     labeled global dimensions, and string attributes (such as the
//     "header" naming the quantities in a dimension), so a downstream
//     component can discover the shape of what it receives and partition
//     it automatically.
//
//   - Bounding-box read selections: each reading rank declares the
//     sub-block of the global array it wants, and the layer assembles
//     that box from however many writer-rank blocks intersect it — the
//     MxN exchange.
//
// The layer is transport-agnostic: it speaks to any per-rank handle of
// the stream contract package flexpath states once (WriterHandle /
// ReaderHandle), whichever backend carries it — in-process broker, TCP,
// UDS or shared memory. ("Other implementation paths are possible here,
// requiring mainly a common communication mechanism and a typed payload"
// — §IV.)
package adios

import (
	"context"
	"strings"

	"repro/internal/flexpath"
	"repro/internal/ndarray"
	"repro/internal/pool"
)

// BlockWriter is one writer rank's transport handle. It is the stream
// contract of package flexpath, not a second statement of it: the Writer
// here publishes every step through PublishBlockRef and resumes at
// NextStep.
type BlockWriter = flexpath.WriterHandle

// BlockReader is one reader rank's transport handle, likewise the
// flexpath contract.
type BlockReader = flexpath.ReaderHandle

// RefBlockWriter names the zero-copy publish method on its own. Every
// BlockWriter has it; the declaration is kept only for the benchmark's
// seam, which aliases it.
type RefBlockWriter interface {
	PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error
}

// VarMeta describes one variable's block as written by one rank: the
// variable name, the labeled global dimensions of the full array, and the
// bounding box this rank's block occupies within it.
type VarMeta struct {
	Name       string
	GlobalDims []ndarray.Dim
	Box        ndarray.Box
}

// GlobalShape returns the sizes of the global dimensions.
func (v VarMeta) GlobalShape() []int {
	out := make([]int, len(v.GlobalDims))
	for i, d := range v.GlobalDims {
		out[i] = d.Size
	}
	return out
}

// BlockMeta is the self-describing metadata one writer rank attaches to
// one timestep: its variables' shapes/boxes plus the step's attributes.
type BlockMeta struct {
	Step  int
	Vars  []VarMeta
	Attrs map[string]string
}

// listSeparator joins and splits string-list attributes such as the
// quantity header the Select component matches names against.
const listSeparator = ","

// JoinList encodes a list-of-strings attribute value.
func JoinList(items []string) string { return strings.Join(items, listSeparator) }

// SplitList decodes a list-of-strings attribute value; an empty value
// yields a nil slice.
func SplitList(v string) []string {
	if v == "" {
		return nil
	}
	return strings.Split(v, listSeparator)
}
