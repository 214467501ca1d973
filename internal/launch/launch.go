// Package launch parses SmartBlock job scripts — the aprun-style launch
// files with which "the user is able to specify an entire workflow as a
// series of applications launched together in a single job script"
// (§III-B, Fig. 8) — into workflow specs. Example:
//
//	# LAMMPS workflow (Fig. 8 of the paper)
//	aprun -n 64  histogram velos.fp velocities 16 &
//	aprun -n 256 magnitude lmpselect.fp lmpsel velos.fp velocities &
//	aprun -n 256 select dump.custom.fp atoms 1 lmpselect.fp lmpsel vx vy vz &
//	aprun -n 1024 lammps dump.custom.fp atoms 100000 10 &
//	wait
//
// Supported syntax: `aprun -n <procs> [-q <queue-depth>] <component>
// <args…> [&]`, blank lines, `#` comments, a trailing `wait`, an
// optional `transport <kind> [addr]` directive selecting the stream
// fabric the workflow runs over (inproc, tcp host:port, uds or shm
// /path/to.sock, or auto to resolve from the address shape), repeatable
// `transport <kind> [addr] stream=<name>` directives routing individual
// streams over a different backend than the workflow default (at most
// one per stream), an optional `log <dir>` directive mounting a durable
// stream log on the workflow's broker (crash recovery and catch-up
// replay; see flexpath.Broker.AttachLog), an optional `supervise
// [restarts=N] [backoff=D] [step-timeout=D]` directive setting the
// restart policy every stage runs under (see workflow.RestartPolicy),
// and an optional `fuse` directive asking the runner to apply the
// stage-fusion pass (see workflow.Plan.Fuse) before launching. Apart
// from the per-stream transport form, each directive may appear at
// most once. The script is the workflow's whole configuration: sbrun
// takes no flag that changes what runs, and the control plane's submit
// carries nothing but the script. Components are resolved by name at
// run time against the registry in package components.
package launch

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/workflow"
)

// ParseError reports a malformed script line with its 1-based number.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("launch script line %d: %s (%q)", e.Line, e.Msg, e.Text)
}

// Parse converts a job script into a workflow spec named name.
func Parse(name string, script string) (workflow.Spec, error) {
	spec := workflow.Spec{Name: name}
	sawWait, sawSupervise := false, false
	for lineNo, raw := range strings.Split(script, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if line == "wait" {
			sawWait = true
			continue
		}
		if sawWait {
			return workflow.Spec{}, &ParseError{Line: lineNo + 1, Text: raw,
				Msg: "command after wait"}
		}
		if strings.HasPrefix(line, "transport") {
			ts, stream, err := parseTransport(lineNo+1, raw, line)
			if err != nil {
				return workflow.Spec{}, err
			}
			if stream != "" {
				// Per-stream form: repeatable, once per stream.
				if _, dup := spec.EdgeTransports[stream]; dup {
					return workflow.Spec{}, &ParseError{Line: lineNo + 1, Text: raw,
						Msg: fmt.Sprintf("duplicate transport directive for stream %q", stream)}
				}
				if spec.EdgeTransports == nil {
					spec.EdgeTransports = map[string]workflow.TransportSpec{}
				}
				spec.EdgeTransports[stream] = ts
				continue
			}
			if spec.Transport.Kind != "" {
				return workflow.Spec{}, &ParseError{Line: lineNo + 1, Text: raw,
					Msg: "duplicate transport directive"}
			}
			spec.Transport = ts
			continue
		}
		if line == "log" || strings.HasPrefix(line, "log ") || strings.HasPrefix(line, "log\t") {
			tokens, err := tokenize(line)
			if err != nil || len(tokens) != 2 || tokens[1] == "" {
				return workflow.Spec{}, &ParseError{Line: lineNo + 1, Text: raw,
					Msg: "log directive wants: log <dir>"}
			}
			if spec.LogDir != "" {
				return workflow.Spec{}, &ParseError{Line: lineNo + 1, Text: raw,
					Msg: "duplicate log directive"}
			}
			spec.LogDir = tokens[1]
			continue
		}
		if line == "supervise" || strings.HasPrefix(line, "supervise ") || strings.HasPrefix(line, "supervise\t") {
			if sawSupervise {
				return workflow.Spec{}, &ParseError{Line: lineNo + 1, Text: raw,
					Msg: "duplicate supervise directive"}
			}
			policy, err := parseSupervise(lineNo+1, raw, line)
			if err != nil {
				return workflow.Spec{}, err
			}
			spec.Restart = policy
			sawSupervise = true
			continue
		}
		if line == "fuse" || strings.HasPrefix(line, "fuse ") || strings.HasPrefix(line, "fuse\t") {
			tokens, err := tokenize(line)
			if err != nil || len(tokens) != 1 {
				return workflow.Spec{}, &ParseError{Line: lineNo + 1, Text: raw,
					Msg: "fuse directive takes no arguments"}
			}
			if spec.Fuse {
				return workflow.Spec{}, &ParseError{Line: lineNo + 1, Text: raw,
					Msg: "duplicate fuse directive"}
			}
			spec.Fuse = true
			continue
		}
		stage, err := parseLine(lineNo+1, raw, line)
		if err != nil {
			return workflow.Spec{}, err
		}
		spec.Stages = append(spec.Stages, stage)
	}
	if len(spec.Stages) == 0 {
		return workflow.Spec{}, fmt.Errorf("launch script %q contains no aprun lines", name)
	}
	return spec, nil
}

// ParseFile reads and parses a job script file; the spec is named after
// the path.
func ParseFile(path string) (workflow.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return workflow.Spec{}, err
	}
	return Parse(path, string(data))
}

// parseTransport handles the `transport <kind> [addr]
// [stream=<name>]` directive, returning the stream name ("" for the
// workflow-wide form). Kind and address validity are checked by
// workflow.TransportSpec.Validate, so the runner and the linter report
// the same diagnostics; here only the shape of the line matters.
func parseTransport(lineNo int, raw, line string) (workflow.TransportSpec, string, error) {
	fail := func(msg string) (workflow.TransportSpec, string, error) {
		return workflow.TransportSpec{}, "", &ParseError{Line: lineNo, Text: raw, Msg: msg}
	}
	tokens, err := tokenize(line)
	if err != nil {
		return fail(err.Error())
	}
	stream := ""
	if n := len(tokens); n > 1 && strings.HasPrefix(tokens[n-1], "stream=") {
		stream = strings.TrimPrefix(tokens[n-1], "stream=")
		if stream == "" {
			return fail("stream= selector wants a stream name")
		}
		tokens = tokens[:n-1]
	}
	switch len(tokens) {
	case 2:
		return workflow.TransportSpec{Kind: tokens[1]}, stream, nil
	case 3:
		return workflow.TransportSpec{Kind: tokens[1], Addr: tokens[2]}, stream, nil
	default:
		return fail("transport directive wants: transport <inproc|tcp|uds|shm|auto> [addr] [stream=<name>]")
	}
}

// parseSupervise handles the `supervise [restarts=N] [backoff=D]
// [step-timeout=D]` directive. A key left out keeps the policy's zero
// value: no restarts, the default backoff, no step deadline. At least
// one key is required, so a bare `supervise` cannot pass for turning
// supervision on while changing nothing.
func parseSupervise(lineNo int, raw, line string) (workflow.RestartPolicy, error) {
	fail := func(msg string) (workflow.RestartPolicy, error) {
		return workflow.RestartPolicy{}, &ParseError{Line: lineNo, Text: raw, Msg: msg}
	}
	tokens, err := tokenize(line)
	if err != nil {
		return fail(err.Error())
	}
	if len(tokens) == 1 {
		return fail("supervise directive wants: supervise [restarts=N] [backoff=D] [step-timeout=D]")
	}
	var policy workflow.RestartPolicy
	seen := map[string]bool{}
	for _, tok := range tokens[1:] {
		key, val, ok := strings.Cut(tok, "=")
		if !ok || val == "" {
			return fail(fmt.Sprintf("supervise setting %q wants key=value", tok))
		}
		if seen[key] {
			return fail(fmt.Sprintf("duplicate supervise setting %q", key))
		}
		seen[key] = true
		switch key {
		case "restarts":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fail(fmt.Sprintf("restart count %q is not a non-negative integer", val))
			}
			policy.MaxRestarts = n
		case "backoff", "step-timeout":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fail(fmt.Sprintf("%s %q is not a non-negative duration", key, val))
			}
			if key == "backoff" {
				policy.Backoff = d
			} else {
				policy.StepTimeout = d
			}
		default:
			return fail(fmt.Sprintf("unknown supervise setting %q (want restarts, backoff or step-timeout)", key))
		}
	}
	return policy, nil
}

func parseLine(lineNo int, raw, line string) (workflow.Stage, error) {
	fail := func(msg string) (workflow.Stage, error) {
		return workflow.Stage{}, &ParseError{Line: lineNo, Text: raw, Msg: msg}
	}
	line = strings.TrimSuffix(strings.TrimSpace(line), "&")
	tokens, err := tokenize(line)
	if err != nil {
		return fail(err.Error())
	}
	if len(tokens) == 0 || tokens[0] != "aprun" {
		return fail("expected a line starting with aprun")
	}
	tokens = tokens[1:]
	stage := workflow.Stage{Procs: 1}
	for len(tokens) > 0 && strings.HasPrefix(tokens[0], "-") {
		switch tokens[0] {
		case "-n":
			if len(tokens) < 2 {
				return fail("-n requires a process count")
			}
			n, err := strconv.Atoi(tokens[1])
			if err != nil || n <= 0 {
				return fail(fmt.Sprintf("process count %q is not a positive integer", tokens[1]))
			}
			stage.Procs = n
			tokens = tokens[2:]
		case "-q":
			if len(tokens) < 2 {
				return fail("-q requires a queue depth")
			}
			q, err := strconv.Atoi(tokens[1])
			if err != nil || q <= 0 {
				return fail(fmt.Sprintf("queue depth %q is not a positive integer", tokens[1]))
			}
			stage.QueueDepth = q
			tokens = tokens[2:]
		default:
			return fail(fmt.Sprintf("unknown aprun flag %q", tokens[0]))
		}
	}
	if len(tokens) == 0 {
		return fail("missing component name")
	}
	for _, t := range tokens {
		if t == "<" || t == ">" || t == "|" {
			return fail(fmt.Sprintf("shell redirection %q is not supported; pass parameters as arguments", t))
		}
	}
	if !validComponentName(tokens[0]) {
		return fail(fmt.Sprintf("invalid component name %q", tokens[0]))
	}
	stage.Component = tokens[0]
	stage.Args = tokens[1:]
	return stage, nil
}

// validComponentName accepts the registry's naming alphabet: letters,
// digits, dot, underscore and dash. Anything else (whitespace, quotes,
// control characters) is a script error, not a component.
func validComponentName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Fields splits one script line on whitespace with the same quoting
// rules the parser applies to aprun lines — the tokenizer sbreplay uses
// for -args/-alt strings, exported so an override written like a script
// line splits exactly like a script line.
func Fields(line string) ([]string, error) { return tokenize(line) }

// tokenize splits a line on whitespace, honoring single and double
// quotes so stream names and header entries may contain spaces.
func tokenize(line string) ([]string, error) {
	var tokens []string
	var cur strings.Builder
	inTok := false
	quote := byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote = c
			inTok = true
		case c == ' ' || c == '\t':
			if inTok {
				tokens = append(tokens, cur.String())
				cur.Reset()
				inTok = false
			}
		default:
			cur.WriteByte(c)
			inTok = true
		}
	}
	if quote != 0 {
		return nil, fmt.Errorf("unterminated quote")
	}
	if inTok {
		tokens = append(tokens, cur.String())
	}
	return tokens, nil
}
