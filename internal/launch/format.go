package launch

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/workflow"
)

// Format renders a workflow spec back into the aprun job-script syntax
// Parse accepts, completing the round trip: a spec assembled
// programmatically can be saved as a script, shared, and re-launched
// with sbrun. Stages with an Instance but no Component name cannot be
// expressed in a script and produce an error.
func Format(spec workflow.Spec) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# workflow %s\n", spec.Name)
	if spec.Transport.Kind != "" {
		sb.WriteString("transport ")
		sb.WriteString(quoteArg(spec.Transport.Kind))
		if spec.Transport.Addr != "" {
			sb.WriteByte(' ')
			sb.WriteString(quoteArg(spec.Transport.Addr))
		}
		sb.WriteByte('\n')
	}
	streams := make([]string, 0, len(spec.EdgeTransports))
	for stream := range spec.EdgeTransports {
		streams = append(streams, stream)
	}
	sort.Strings(streams) // deterministic rendering
	for _, stream := range streams {
		ts := spec.EdgeTransports[stream]
		sb.WriteString("transport ")
		sb.WriteString(quoteArg(ts.Kind))
		if ts.Addr != "" {
			sb.WriteByte(' ')
			sb.WriteString(quoteArg(ts.Addr))
		}
		// The stream selector must survive tokenizing as one token, so
		// the whole selector is quoted when the name needs it.
		sb.WriteByte(' ')
		sb.WriteString(quoteArg("stream=" + stream))
		sb.WriteByte('\n')
	}
	if spec.LogDir != "" {
		sb.WriteString("log ")
		sb.WriteString(quoteArg(spec.LogDir))
		sb.WriteByte('\n')
	}
	if r := spec.Restart; r != (workflow.RestartPolicy{}) {
		sb.WriteString("supervise")
		if r.MaxRestarts != 0 {
			fmt.Fprintf(&sb, " restarts=%d", r.MaxRestarts)
		}
		if r.Backoff != 0 {
			fmt.Fprintf(&sb, " backoff=%s", r.Backoff)
		}
		if r.StepTimeout != 0 {
			fmt.Fprintf(&sb, " step-timeout=%s", r.StepTimeout)
		}
		sb.WriteByte('\n')
	}
	if spec.Fuse {
		sb.WriteString("fuse\n")
	}
	for i, st := range spec.Stages {
		name := st.Component
		if name == "" {
			if st.Instance == nil {
				return "", fmt.Errorf("launch: stage %d has neither component name nor instance", i)
			}
			name = st.Instance.Name()
		}
		sb.WriteString("aprun -n ")
		fmt.Fprintf(&sb, "%d", st.Procs)
		if st.QueueDepth > 0 {
			fmt.Fprintf(&sb, " -q %d", st.QueueDepth)
		}
		sb.WriteByte(' ')
		sb.WriteString(name)
		for _, arg := range st.Args {
			sb.WriteByte(' ')
			sb.WriteString(quoteArg(arg))
		}
		sb.WriteString(" &\n")
	}
	sb.WriteString("wait\n")
	return sb.String(), nil
}

// quoteArg renders an argument so the tokenizer reconstructs it exactly.
// The tokenizer has no escape characters but concatenates adjacent
// quoted segments ("a"'b' tokenizes as "ab"), so arguments containing
// both quote characters are emitted as alternating segments: every `"`
// rides in a single-quoted segment, everything else in double-quoted
// ones.
func quoteArg(arg string) string {
	if arg != "" && !strings.ContainsAny(arg, " \t#&\"'") {
		return arg
	}
	if arg == "" {
		return `""`
	}
	var sb strings.Builder
	i := 0
	for i < len(arg) {
		if arg[i] == '"' {
			j := i
			for j < len(arg) && arg[j] == '"' {
				j++
			}
			sb.WriteByte('\'')
			sb.WriteString(arg[i:j])
			sb.WriteByte('\'')
			i = j
			continue
		}
		j := i
		for j < len(arg) && arg[j] != '"' {
			j++
		}
		sb.WriteByte('"')
		sb.WriteString(arg[i:j])
		sb.WriteByte('"')
		i = j
	}
	return sb.String()
}
