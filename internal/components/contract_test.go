package components

import (
	"testing"

	"repro/internal/sb"
)

// componentContract holds valid construction arguments for every
// registered component, plus its expected stream wiring.
var componentContract = map[string]struct {
	args []string
	ins  []string
	outs []string
}{
	"select":        {[]string{"in.fp", "x", "1", "out.fp", "y", "vx"}, []string{"in.fp"}, []string{"out.fp"}},
	"magnitude":     {[]string{"in.fp", "x", "out.fp", "y"}, []string{"in.fp"}, []string{"out.fp"}},
	"dim-reduce":    {[]string{"in.fp", "x", "0", "1", "out.fp", "y"}, []string{"in.fp"}, []string{"out.fp"}},
	"histogram":     {[]string{"in.fp", "x", "8"}, []string{"in.fp"}, nil},
	"aio":           {[]string{"in.fp", "x", "1", "8", "-", "vx"}, []string{"in.fp"}, nil},
	"fork":          {[]string{"in.fp", "x", "a.fp", "b.fp"}, []string{"in.fp"}, []string{"a.fp", "b.fp"}},
	"all-pairs":     {[]string{"in.fp", "x", "out.fp", "y"}, []string{"in.fp"}, []string{"out.fp"}},
	"file-writer":   {[]string{"in.fp", "x", "/tmp/dir"}, []string{"in.fp"}, nil},
	"file-reader":   {[]string{"/tmp/dir", "out.fp"}, nil, []string{"out.fp"}},
	"stats":         {[]string{"in.fp", "x"}, []string{"in.fp"}, nil},
	"scale":         {[]string{"in.fp", "x", "2", "0", "out.fp", "y"}, []string{"in.fp"}, []string{"out.fp"}},
	"sample":        {[]string{"in.fp", "x", "4", "out.fp", "y"}, []string{"in.fp"}, []string{"out.fp"}},
	"step-sample":   {[]string{"in.fp", "x", "2", "out.fp", "y"}, []string{"in.fp"}, []string{"out.fp"}},
	"concat":        {[]string{"a.fp", "x", "b.fp", "y", "0", "out.fp", "z"}, []string{"a.fp", "b.fp"}, []string{"out.fp"}},
	"svg-histogram": {[]string{"in.fp", "x", "8", "/tmp/dir"}, []string{"in.fp"}, nil},
	// The simulation drivers are registered by the sim packages, not
	// here; workflow tests cover their declarations.
	"lammps":  {},
	"gtcp":    {},
	"gromacs": {},
}

// TestEveryRegisteredComponentHonorsTheContract walks the registry: each
// component constructs from its documented arguments, reports its
// registry name from Name(), and declares exactly the streams its
// arguments name — the properties the launch scripts and the plan lint
// depend on.
func TestEveryRegisteredComponentHonorsTheContract(t *testing.T) {
	for _, name := range Names() {
		contract, known := componentContract[name]
		if !known {
			t.Errorf("component %q registered but missing from the contract table; add it", name)
			continue
		}
		if contract.args == nil {
			continue // covered elsewhere (simulation drivers)
		}
		c, err := New(name, contract.args)
		if err != nil {
			t.Errorf("%s: construction failed: %v", name, err)
			continue
		}
		if got := c.Name(); got != name {
			t.Errorf("%s: Name() = %q", name, got)
		}
		d, ok := c.(sb.PortDeclarer)
		if !ok {
			t.Errorf("%s: does not implement sb.PortDeclarer", name)
			continue
		}
		ports := d.Ports()
		if got := streams(sb.In(ports)); !sameStrings(got, contract.ins) {
			t.Errorf("%s: input streams = %v, want %v", name, got, contract.ins)
		}
		if got := streams(sb.Out(ports)); !sameStrings(got, contract.outs) {
			t.Errorf("%s: output streams = %v, want %v", name, got, contract.outs)
		}
	}
}

func streams(ports []sb.Port) []string {
	var out []string
	for _, p := range ports {
		out = append(out, p.Stream)
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
