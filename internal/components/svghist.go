package components

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/adios"
	"repro/internal/sb"
)

const svgHistogramUsage = "input-stream-name input-array-name num-bins output-dir"

// SVGHistogram is a visualization endpoint: like Histogram it reduces a
// one-dimensional stream to a per-timestep distribution, but renders
// each step as a standalone SVG bar chart instead of a text table. In
// situ visualization is the motivating use case of the paper's related
// work (Catalyst/ParaView, Libsim/VisIt, §II); this component is the
// SmartBlock-shaped version — generic, stream-configured, endpoint.
// Rank 0 writes one file per timestep: step000000.svg, step000001.svg, …
type SVGHistogram struct {
	InStream, InArray string
	NumBins           int
	Dir               string

	// Width and Height are the rendered canvas in pixels.
	Width, Height int
}

// NewSVGHistogram parses: input-stream input-array num-bins output-dir.
func NewSVGHistogram(args []string) (sb.Component, error) {
	if len(args) != 4 {
		return nil, &sb.UsageError{Component: "svg-histogram", Usage: svgHistogramUsage,
			Problem: fmt.Sprintf("need exactly 4 arguments, got %d", len(args))}
	}
	bins, err := strconv.Atoi(args[2])
	if err != nil || bins <= 0 {
		return nil, &sb.UsageError{Component: "svg-histogram", Usage: svgHistogramUsage,
			Problem: fmt.Sprintf("num-bins %q is not a positive integer", args[2])}
	}
	return &SVGHistogram{
		InStream: args[0], InArray: args[1],
		NumBins: bins, Dir: args[3],
		Width: 640, Height: 360,
	}, nil
}

// Name implements sb.Component.
func (s *SVGHistogram) Name() string { return "svg-histogram" }

// ReservedAxes implements sb.ReduceKernel: 1-D input, nothing reserved.
func (s *SVGHistogram) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}

// Reduce implements sb.ReduceKernel.
func (s *SVGHistogram) Reduce(in *StepIn) (StepHistogram, error) {
	return ComputeHistogram(in.Env.Comm, in.Block.Data(), s.NumBins)
}

// Run implements sb.Component.
func (s *SVGHistogram) Run(env *sb.Env) error {
	if env.Comm.Rank() == 0 {
		if err := os.MkdirAll(s.Dir, 0o755); err != nil {
			return fmt.Errorf("svg-histogram: %w", err)
		}
	}
	if err := env.Comm.Barrier(); err != nil { // directory exists before any step
		return err
	}
	return sb.RunReduce(env, sb.ReduceConfig[StepHistogram]{
		Name:     "svg-histogram",
		InStream: s.InStream, InArray: s.InArray,
		RequireDims: 1,
		OnResult: func(step int, h StepHistogram) error {
			h.Step = step
			path := filepath.Join(s.Dir, fmt.Sprintf("step%06d.svg", step))
			return os.WriteFile(path, []byte(RenderHistogramSVG(s.InArray, h, s.Width, s.Height)), 0o644)
		},
	}, s)
}

// RenderHistogramSVG draws one step's distribution as a self-contained
// SVG bar chart with axis labels.
func RenderHistogramSVG(quantity string, h StepHistogram, width, height int) string {
	const (
		marginLeft   = 50
		marginRight  = 15
		marginTop    = 30
		marginBottom = 40
	)
	plotW := width - marginLeft - marginRight
	plotH := height - marginTop - marginBottom
	var peak int64 = 1
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&sb, `  <rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&sb, `  <text x="%d" y="18" font-family="sans-serif" font-size="13">%s — step %d (n=%d)</text>`+"\n",
		marginLeft, xmlEscape(quantity), h.Step, h.Total)
	nbins := len(h.Counts)
	if nbins > 0 {
		barW := float64(plotW) / float64(nbins)
		for i, c := range h.Counts {
			barH := float64(plotH) * float64(c) / float64(peak)
			x := float64(marginLeft) + float64(i)*barW
			y := float64(marginTop+plotH) - barH
			fmt.Fprintf(&sb, `  <rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#4878a8"><title>[%g, %g): %d</title></rect>`+"\n",
				x, y, barW*0.9, barH, first(h.Bin(i)), second(h.Bin(i)), c)
		}
	}
	// Axes and extreme labels.
	fmt.Fprintf(&sb, `  <line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)
	fmt.Fprintf(&sb, `  <line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	fmt.Fprintf(&sb, `  <text x="%d" y="%d" font-family="sans-serif" font-size="11">%g</text>`+"\n",
		marginLeft, height-12, h.Min)
	fmt.Fprintf(&sb, `  <text x="%d" y="%d" font-family="sans-serif" font-size="11" text-anchor="end">%g</text>`+"\n",
		marginLeft+plotW, height-12, h.Max)
	fmt.Fprintf(&sb, `  <text x="%d" y="%d" font-family="sans-serif" font-size="11" text-anchor="end">%d</text>`+"\n",
		marginLeft-5, marginTop+10, peak)
	sb.WriteString("</svg>\n")
	return sb.String()
}

func first(a, _ float64) float64  { return a }
func second(_, b float64) float64 { return b }

// xmlEscape escapes the five XML special characters.
func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")
	return r.Replace(s)
}

func init() { Register("svg-histogram", NewSVGHistogram) }
