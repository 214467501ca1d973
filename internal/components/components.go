// Package components implements SmartBlock's generic, reusable workflow
// components (§III-B of the paper): Select, Magnitude, Dim-Reduce and
// Histogram, plus the custom all-in-one (AIO) baseline used in the
// Table II comparison and the extensions sketched in the paper's future
// work (§VI): Fork (multiple write groups / DAG workflows), AllPairs (a
// data-increasing analysis), and FileWriter/FileReader (storage coupling
// that breaks the all-simultaneous dependency: a stream recorded into a
// stream-log store, the format the broker's journal uses, and replayed
// from it).
//
// Every component is configured exclusively through positional run-time
// arguments mirroring the paper's aprun usage lines, and is instantiated
// by name through the registry (New), which is what the launch-script
// front end resolves component names against.
package components

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/adios"
	"repro/internal/sb"
)

// Factory builds a component from its run-time arguments.
type Factory func(args []string) (sb.Component, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a factory under a component name. It panics on
// duplicates: component names are a global namespace the launch scripts
// refer to, and a silent override would change what a script runs.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("components: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New instantiates a registered component by name with the given
// arguments — the programmatic equivalent of an aprun line.
func New(name string, args []string) (sb.Component, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("components: unknown component %q (have %v)", name, Names())
	}
	return f(args)
}

// Names lists the registered component names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HeaderAttr is the attribute-name convention for the "header" the paper
// describes (§III-C): a list of strings naming the quantities along one
// dimension, keyed by that dimension's label. A producer whose array has
// a dimension labeled "props" sets attribute "header.props".
func HeaderAttr(dimLabel string) string { return "header." + dimLabel }

// HeaderFor extracts the header for one axis of a variable from step
// attributes, or nil if none was provided upstream.
func HeaderFor(info *adios.StepInfo, v *adios.GlobalVar, axis int) []string {
	return info.ListAttr(HeaderAttr(v.Dims[axis].Name))
}
