package components

import "repro/internal/sb"

// This file implements the sb.PortDeclarer contract for every built-in
// component: each states, from its parsed arguments, exactly which
// streams it attaches to and the primary array it carries there. The
// workflow planner derives dataflow edges from these declarations; the
// array names are what let the fusion pass check that two adjacent
// kernels hand the same variable to each other, not merely meet on a
// stream.

// Ports implements sb.PortDeclarer.
func (s *Select) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: s.InStream, Array: s.InArray},
		{Dir: sb.PortOut, Stream: s.OutStream, Array: s.OutArray},
	}
}

// MapSpec implements sb.Fusable: Select is a pure per-rank map.
func (s *Select) MapSpec() (sb.MapConfig, sb.MapKernel) {
	return sb.MapConfig{
		Name:     "select",
		InStream: s.InStream, InArray: s.InArray,
		OutStream: s.OutStream, OutArray: s.OutArray,
		ForwardAttrs: true,
	}, s
}

// Ports implements sb.PortDeclarer.
func (m *Magnitude) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: m.InStream, Array: m.InArray},
		{Dir: sb.PortOut, Stream: m.OutStream, Array: m.OutArray},
	}
}

// MapSpec implements sb.Fusable: Magnitude is a pure per-rank map.
func (m *Magnitude) MapSpec() (sb.MapConfig, sb.MapKernel) {
	return sb.MapConfig{
		Name:     "magnitude",
		InStream: m.InStream, InArray: m.InArray,
		OutStream: m.OutStream, OutArray: m.OutArray,
		ForwardAttrs: false, // the vector header does not describe the output
	}, m
}

// Ports implements sb.PortDeclarer.
func (d *DimReduce) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: d.InStream, Array: d.InArray},
		{Dir: sb.PortOut, Stream: d.OutStream, Array: d.OutArray},
	}
}

// MapSpec implements sb.Fusable: DimReduce is a pure per-rank map.
func (d *DimReduce) MapSpec() (sb.MapConfig, sb.MapKernel) {
	return sb.MapConfig{
		Name:     "dim-reduce",
		InStream: d.InStream, InArray: d.InArray,
		OutStream: d.OutStream, OutArray: d.OutArray,
		ForwardAttrs: true,
	}, d
}

// Ports implements sb.PortDeclarer.
func (s *Scale) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: s.InStream, Array: s.InArray},
		{Dir: sb.PortOut, Stream: s.OutStream, Array: s.OutArray},
	}
}

// MapSpec implements sb.Fusable: Scale is a pure per-rank map.
func (s *Scale) MapSpec() (sb.MapConfig, sb.MapKernel) {
	return sb.MapConfig{
		Name:     "scale",
		InStream: s.InStream, InArray: s.InArray,
		OutStream: s.OutStream, OutArray: s.OutArray,
		ForwardAttrs: true,
	}, s
}

// Ports implements sb.PortDeclarer.
func (s *Sample) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: s.InStream, Array: s.InArray},
		{Dir: sb.PortOut, Stream: s.OutStream, Array: s.OutArray},
	}
}

// MapSpec implements sb.Fusable: Sample is a pure per-rank map.
func (s *Sample) MapSpec() (sb.MapConfig, sb.MapKernel) {
	return sb.MapConfig{
		Name:     "sample",
		InStream: s.InStream, InArray: s.InArray,
		OutStream: s.OutStream, OutArray: s.OutArray,
		ForwardAttrs: true,
	}, s
}

// Ports implements sb.PortDeclarer. AllPairs is deliberately NOT
// Fusable: its kernel re-reads the whole sample through the open step
// reader, which an interior fused stage does not have.
func (a *AllPairs) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: a.InStream, Array: a.InArray},
		{Dir: sb.PortOut, Stream: a.OutStream, Array: a.OutArray},
	}
}

// Ports implements sb.PortDeclarer; Histogram is an endpoint.
func (h *Histogram) Ports() []sb.Port {
	return []sb.Port{{Dir: sb.PortIn, Stream: h.InStream, Array: h.InArray}}
}

// Ports implements sb.PortDeclarer; AIO is an endpoint.
func (a *AIO) Ports() []sb.Port {
	return []sb.Port{{Dir: sb.PortIn, Stream: a.InStream, Array: a.InArray}}
}

// Ports implements sb.PortDeclarer; Stats is an endpoint.
func (s *Stats) Ports() []sb.Port {
	return []sb.Port{{Dir: sb.PortIn, Stream: s.InStream, Array: s.InArray}}
}

// Ports implements sb.PortDeclarer; SVGHistogram is an endpoint.
func (s *SVGHistogram) Ports() []sb.Port {
	return []sb.Port{{Dir: sb.PortIn, Stream: s.InStream, Array: s.InArray}}
}

// Ports implements sb.PortDeclarer: Fork republishes its input array on
// every output stream.
func (f *Fork) Ports() []sb.Port {
	ports := []sb.Port{{Dir: sb.PortIn, Stream: f.InStream, Array: f.InArray}}
	for _, out := range f.OutStreams {
		ports = append(ports, sb.Port{Dir: sb.PortOut, Stream: out, Array: f.InArray})
	}
	return ports
}

// Ports implements sb.PortDeclarer.
func (c *Concat) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: c.InStream1, Array: c.InArray1},
		{Dir: sb.PortIn, Stream: c.InStream2, Array: c.InArray2},
		{Dir: sb.PortOut, Stream: c.OutStream, Array: c.OutArray},
	}
}

// Ports implements sb.PortDeclarer.
func (s *StepSample) Ports() []sb.Port {
	return []sb.Port{
		{Dir: sb.PortIn, Stream: s.InStream, Array: s.InArray},
		{Dir: sb.PortOut, Stream: s.OutStream, Array: s.OutArray},
	}
}

// Ports implements sb.PortDeclarer; FileWriter ends in storage.
func (f *FileWriter) Ports() []sb.Port {
	return []sb.Port{{Dir: sb.PortIn, Stream: f.InStream, Array: f.InArray}}
}

// Ports implements sb.PortDeclarer; FileReader starts from storage and
// republishes whatever arrays the files hold, so the array is
// undeclared.
func (f *FileReader) Ports() []sb.Port {
	return []sb.Port{{Dir: sb.PortOut, Stream: f.OutStream}}
}

// Compile-time checks: every built-in declares ports, and the map-style
// transforms expose the kernel seam fusion composes.
var (
	_ sb.PortDeclarer = (*Select)(nil)
	_ sb.PortDeclarer = (*Magnitude)(nil)
	_ sb.PortDeclarer = (*DimReduce)(nil)
	_ sb.PortDeclarer = (*Scale)(nil)
	_ sb.PortDeclarer = (*Sample)(nil)
	_ sb.PortDeclarer = (*AllPairs)(nil)
	_ sb.PortDeclarer = (*Histogram)(nil)
	_ sb.PortDeclarer = (*AIO)(nil)
	_ sb.PortDeclarer = (*Stats)(nil)
	_ sb.PortDeclarer = (*SVGHistogram)(nil)
	_ sb.PortDeclarer = (*Fork)(nil)
	_ sb.PortDeclarer = (*Concat)(nil)
	_ sb.PortDeclarer = (*StepSample)(nil)
	_ sb.PortDeclarer = (*FileWriter)(nil)
	_ sb.PortDeclarer = (*FileReader)(nil)

	_ sb.Fusable = (*Select)(nil)
	_ sb.Fusable = (*Magnitude)(nil)
	_ sb.Fusable = (*DimReduce)(nil)
	_ sb.Fusable = (*Scale)(nil)
	_ sb.Fusable = (*Sample)(nil)
)
