package launch

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/workflow"
)

// fig8 is the paper's Fig. 8 launch script, adapted to this repo's
// simulator arguments (no stdin deck).
const fig8 = `
# SmartBlock example launch script, LAMMPS workflow
aprun -n 64 histogram velos.fp velocities 16 &
aprun -n 256 magnitude lmpselect.fp lmpsel velos.fp velocities &
aprun -n 256 select dump.custom.fp atoms 1 lmpselect.fp lmpsel vx vy vz &
aprun -n 1024 lammps dump.custom.fp atoms 100000 10 &
wait
`

func TestParseFig8(t *testing.T) {
	spec, err := Parse("fig8", fig8)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Stages) != 4 {
		t.Fatalf("got %d stages", len(spec.Stages))
	}
	st := spec.Stages[0]
	if st.Component != "histogram" || st.Procs != 64 || len(st.Args) != 3 {
		t.Fatalf("stage 0 = %+v", st)
	}
	sel := spec.Stages[2]
	if sel.Component != "select" || sel.Procs != 256 {
		t.Fatalf("stage 2 = %+v", sel)
	}
	if want := []string{"dump.custom.fp", "atoms", "1", "lmpselect.fp", "lmpsel", "vx", "vy", "vz"}; len(sel.Args) != len(want) {
		t.Fatalf("select args = %v", sel.Args)
	} else {
		for i := range want {
			if sel.Args[i] != want[i] {
				t.Fatalf("select args = %v", sel.Args)
			}
		}
	}
	if spec.Stages[3].Procs != 1024 {
		t.Fatalf("lammps procs = %d", spec.Stages[3].Procs)
	}
}

func TestParseQueueDepthFlag(t *testing.T) {
	spec, err := Parse("q", `aprun -n 4 -q 8 magnitude a.fp x b.fp y`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Stages[0].QueueDepth != 8 || spec.Stages[0].Procs != 4 {
		t.Fatalf("stage = %+v", spec.Stages[0])
	}
}

func TestParseDefaultsProcsToOne(t *testing.T) {
	spec, err := Parse("d", `aprun histogram a.fp x 4`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Stages[0].Procs != 1 {
		t.Fatalf("procs = %d", spec.Stages[0].Procs)
	}
}

func TestParseQuotedArgs(t *testing.T) {
	spec, err := Parse("quoted", `aprun -n 2 select "my stream.fp" atoms 1 out.fp sel 'v x'`)
	if err != nil {
		t.Fatal(err)
	}
	args := spec.Stages[0].Args
	if args[0] != "my stream.fp" || args[len(args)-1] != "v x" {
		t.Fatalf("args = %q", args)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"comments only":    "# nothing\n\n",
		"not aprun":        `mpirun -n 4 histogram a.fp x 4`,
		"bad procs":        `aprun -n zero histogram a.fp x 4`,
		"negative procs":   `aprun -n -4 histogram a.fp x 4`,
		"missing -n value": `aprun -n`,
		"unknown flag":     `aprun -Z 4 histogram a.fp x 4`,
		"no component":     `aprun -n 4`,
		"redirect":         `aprun -n 4 lammps < in.cracksm`,
		"pipe":             `aprun -n 4 lammps | tee log`,
		"after wait":       "aprun -n 1 histogram a.fp x 4\nwait\naprun -n 1 histogram b.fp x 4",
		"unterminated":     `aprun -n 1 histogram "a.fp x 4`,
		"bad queue":        `aprun -n 1 -q zero histogram a.fp x 4`,
		"bare transport":   "transport\naprun -n 1 histogram a.fp x 4",
		"transport extras": "transport tcp 1.2.3.4:7 extra\naprun -n 1 histogram a.fp x 4",
		"two transports":   "transport inproc\ntransport tcp 1.2.3.4:7\naprun -n 1 histogram a.fp x 4",
		"two fuses":        "fuse\nfuse\naprun -n 1 histogram a.fp x 4",
		"fuse extras":      "fuse hard\naprun -n 1 histogram a.fp x 4",
		"bare log":         "log\naprun -n 1 histogram a.fp x 4",
		"log extras":       "log /var/a /var/b\naprun -n 1 histogram a.fp x 4",
		"empty log dir":    "log \"\"\naprun -n 1 histogram a.fp x 4",
		"two logs":         "log /var/a\nlog /var/b\naprun -n 1 histogram a.fp x 4",
	}
	for name, script := range cases {
		if _, err := Parse(name, script); err == nil {
			t.Errorf("Parse(%s) succeeded", name)
		}
	}
}

func TestParseTransportDirective(t *testing.T) {
	spec, err := Parse("t", "transport uds /tmp/b.sock\naprun -n 1 histogram a.fp x 4\nwait\n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Transport.Kind != "uds" || spec.Transport.Addr != "/tmp/b.sock" {
		t.Fatalf("transport = %+v", spec.Transport)
	}
	spec, err = Parse("t", "transport inproc\naprun -n 1 histogram a.fp x 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Transport.Kind != "inproc" || spec.Transport.Addr != "" {
		t.Fatalf("transport = %+v", spec.Transport)
	}
	// The directive's kind/addr validity is judged by the workflow
	// layer, where sbrun's flag overrides also land.
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	spec.Transport.Kind = "carrier-pigeon"
	if err := spec.Validate(); err == nil {
		t.Fatal("unknown transport kind validated")
	}
	spec.Transport = workflow.TransportSpec{Kind: "tcp"}
	if err := spec.Validate(); err == nil {
		t.Fatal("tcp without address validated")
	}
}

func TestParseEdgeTransportDirective(t *testing.T) {
	spec, err := Parse("t", strings.Join([]string{
		"transport auto /run/b.sock",
		"transport uds /run/b.sock stream=dump.fp",
		"transport tcp node1:7777 stream=velos.fp",
		"aprun -n 1 histogram a.fp x 4",
		"wait",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Transport.Kind != "auto" || spec.Transport.Addr != "/run/b.sock" {
		t.Fatalf("transport = %+v", spec.Transport)
	}
	want := map[string]workflow.TransportSpec{
		"dump.fp":  {Kind: "uds", Addr: "/run/b.sock"},
		"velos.fp": {Kind: "tcp", Addr: "node1:7777"},
	}
	if len(spec.EdgeTransports) != len(want) {
		t.Fatalf("edge transports = %+v", spec.EdgeTransports)
	}
	for stream, ts := range want {
		if spec.EdgeTransports[stream] != ts {
			t.Fatalf("stream %q = %+v, want %+v", stream, spec.EdgeTransports[stream], ts)
		}
	}
	// Per-stream directives don't count as the (single) global one.
	spec, err = Parse("t", "transport shm /run/b.sock stream=dump.fp\naprun -n 1 histogram a.fp x 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Transport.Kind != "" {
		t.Fatalf("global transport set by stream form: %+v", spec.Transport)
	}

	bad := map[string]string{
		"dup stream": "transport uds /run/b.sock stream=a.fp\ntransport tcp h:1 stream=a.fp\naprun -n 1 histogram a.fp x 4",
		"bare name":  "transport uds /run/b.sock stream=\naprun -n 1 histogram a.fp x 4",
		"extras":     "transport tcp h:1 extra stream=a.fp\naprun -n 1 histogram a.fp x 4",
	}
	for name, script := range bad {
		if _, err := Parse(name, script); err == nil {
			t.Errorf("Parse(%s) succeeded", name)
		}
	}
}

func TestFormatRendersEdgeTransports(t *testing.T) {
	spec, err := Parse("rt", strings.Join([]string{
		"transport auto /run/b.sock",
		"transport tcp node1:7777 stream=velos.fp",
		"transport uds \"/run/sb dir/b.sock\" \"stream=dump 1.fp\"",
		"aprun -n 1 histogram a.fp x 4 &",
		"wait",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	text, err := Format(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse("rt2", text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if len(again.EdgeTransports) != 2 ||
		again.EdgeTransports["velos.fp"] != spec.EdgeTransports["velos.fp"] ||
		again.EdgeTransports["dump 1.fp"] != spec.EdgeTransports["dump 1.fp"] {
		t.Fatalf("round trip lost edge transports:\n%s\n%+v", text, again.EdgeTransports)
	}
}

func TestParseLogDirective(t *testing.T) {
	spec, err := Parse("lg", "log /var/run/sb-log\naprun -n 1 histogram a.fp x 4\nwait\n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.LogDir != "/var/run/sb-log" {
		t.Fatalf("log dir = %q", spec.LogDir)
	}
	spec, err = Parse("lg", "aprun -n 1 histogram a.fp x 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.LogDir != "" {
		t.Fatalf("log dir set without directive: %q", spec.LogDir)
	}
	// Directories with spaces ride in quotes, like any other argument.
	spec, err = Parse("lg", "log \"/mnt/scratch/my logs\"\naprun -n 1 histogram a.fp x 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.LogDir != "/mnt/scratch/my logs" {
		t.Fatalf("quoted log dir = %q", spec.LogDir)
	}
}

func TestParseSuperviseDirective(t *testing.T) {
	const stage = "\naprun -n 1 histogram a.fp x 4\nwait\n"
	cases := []struct {
		line string
		want workflow.RestartPolicy
	}{
		{"supervise restarts=3", workflow.RestartPolicy{MaxRestarts: 3}},
		{"supervise backoff=20ms", workflow.RestartPolicy{Backoff: 20 * time.Millisecond}},
		{"supervise step-timeout=10s", workflow.RestartPolicy{StepTimeout: 10 * time.Second}},
		{"supervise\tstep-timeout=1m restarts=5 backoff=1s",
			workflow.RestartPolicy{MaxRestarts: 5, Backoff: time.Second, StepTimeout: time.Minute}},
		// An explicit zero is the unsupervised policy.
		{"supervise restarts=0", workflow.RestartPolicy{}},
	}
	for _, c := range cases {
		spec, err := Parse("sv", c.line+stage)
		if err != nil {
			t.Fatalf("%q: %v", c.line, err)
		}
		if spec.Restart != c.want {
			t.Fatalf("%q: policy = %+v, want %+v", c.line, spec.Restart, c.want)
		}
	}
	// No directive: the zero policy, the unsupervised run.
	spec, err := Parse("sv", "aprun -n 1 histogram a.fp x 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Restart != (workflow.RestartPolicy{}) {
		t.Fatalf("policy set without directive: %+v", spec.Restart)
	}
}

func TestParseSuperviseRejects(t *testing.T) {
	cases := map[string]struct{ script, msg string }{
		"bare":              {"supervise", "supervise directive wants"},
		"duplicate":         {"supervise restarts=1\nsupervise restarts=2", "duplicate supervise directive"},
		"duplicate key":     {"supervise restarts=1 restarts=2", "duplicate supervise setting"},
		"unknown key":       {"supervise retries=3", "unknown supervise setting"},
		"stage selector":    {"supervise restarts=3 stage=histogram", "unknown supervise setting"},
		"no value":          {"supervise restarts=", "wants key=value"},
		"no equals":         {"supervise restarts", "wants key=value"},
		"negative count":    {"supervise restarts=-1", "non-negative integer"},
		"non-numeric count": {"supervise restarts=many", "non-negative integer"},
		"bad duration":      {"supervise backoff=soon", "non-negative duration"},
		"unitless duration": {"supervise step-timeout=10", "non-negative duration"},
		"negative duration": {"supervise step-timeout=-1s", "non-negative duration"},
		// Not a directive: sbreplay names its recording with -log-dir.
		"replay directive": {"replay /mnt/scratch/rec", "expected a line starting with aprun"},
	}
	for name, c := range cases {
		_, err := Parse(name, c.script+"\naprun -n 1 histogram a.fp x 4\n")
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, c.msg) {
			t.Errorf("%s: err = %v, want a parse error containing %q", name, err, c.msg)
		}
	}
}

func TestParseFuseDirective(t *testing.T) {
	spec, err := Parse("f", "fuse\naprun -n 1 histogram a.fp x 4\nwait\n")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Fuse {
		t.Fatal("fuse directive not recorded")
	}
	spec, err = Parse("f", "aprun -n 1 histogram a.fp x 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Fuse {
		t.Fatal("fuse set without directive")
	}
}

func TestParseDuplicateDirectivesReportLine(t *testing.T) {
	cases := map[string]struct {
		script string
		line   int
	}{
		"transport": {"transport inproc\ntransport inproc\naprun -n 1 histogram a.fp x 4", 2},
		"fuse":      {"fuse\n# comment\nfuse\naprun -n 1 histogram a.fp x 4", 3},
		"log":       {"log /var/a\n\nlog /var/b\naprun -n 1 histogram a.fp x 4", 3},
		"supervise": {"supervise restarts=1\nsupervise backoff=1s\naprun -n 1 histogram a.fp x 4", 2},
	}
	for name, tc := range cases {
		_, err := Parse(name, tc.script)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v", name, err)
		}
		if pe.Line != tc.line || !strings.Contains(pe.Msg, "duplicate") {
			t.Fatalf("%s: parse error = %+v", name, pe)
		}
	}
}

func TestFormatRendersDirectives(t *testing.T) {
	spec, err := Parse("rt", "transport uds /tmp/b.sock\nlog \"/mnt/scratch/sb logs\"\nsupervise restarts=3 backoff=20ms step-timeout=1m30s\nfuse\naprun -n 2 -q 4 magnitude a.fp x b.fp y &\nwait\n")
	if err != nil {
		t.Fatal(err)
	}
	text, err := Format(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "transport uds /tmp/b.sock\n") || !strings.Contains(text, "fuse\n") {
		t.Fatalf("formatted script missing directives:\n%s", text)
	}
	if !strings.Contains(text, "log \"/mnt/scratch/sb logs\"\n") {
		t.Fatalf("formatted script missing log directive:\n%s", text)
	}
	again, err := Parse("rt2", text)
	if err != nil {
		t.Fatal(err)
	}
	if again.Transport != spec.Transport || again.Fuse != spec.Fuse {
		t.Fatalf("round trip lost directives: %+v fuse=%v", again.Transport, again.Fuse)
	}
	if again.LogDir != spec.LogDir {
		t.Fatalf("round trip lost log dir: %q vs %q", again.LogDir, spec.LogDir)
	}
	if !strings.Contains(text, "supervise restarts=3 backoff=20ms step-timeout=1m30s\n") {
		t.Fatalf("formatted script missing supervise directive:\n%s", text)
	}
	want := workflow.RestartPolicy{MaxRestarts: 3, Backoff: 20 * time.Millisecond, StepTimeout: 90 * time.Second}
	if again.Restart != spec.Restart || again.Restart != want {
		t.Fatalf("round trip lost the supervise policy: %+v vs %+v", again.Restart, spec.Restart)
	}
	if again.Stages[0].QueueDepth != 4 {
		t.Fatalf("round trip lost queue depth: %+v", again.Stages[0])
	}
}

func TestParseErrorReportsLine(t *testing.T) {
	_, err := Parse("l", "aprun -n 1 histogram a.fp x 4\nmpirun oops\n")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if pe.Line != 2 || !strings.Contains(pe.Error(), "line 2") {
		t.Fatalf("parse error = %+v", pe)
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wf.sh")
	if err := os.WriteFile(path, []byte(fig8), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != path || len(spec.Stages) != 4 {
		t.Fatalf("spec = %+v", spec)
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.sh")); err == nil {
		t.Fatal("missing file parsed")
	}
}

func TestTokenize(t *testing.T) {
	toks, err := tokenize(`a "b c" d'e f'g  h`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b c", "de fg", "h"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %q", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens = %q, want %q", toks, want)
		}
	}
}

// Fields is the exported tokenizer sbreplay splits -args/-alt override
// strings with: identical quoting rules to aprun lines.
func TestFields(t *testing.T) {
	got, err := Fields(`velos.fp velocities "8 bins" 'x y'`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"velos.fp", "velocities", "8 bins", "x y"}
	if len(got) != len(want) {
		t.Fatalf("Fields = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Fields[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := Fields(`unterminated "quote`); err == nil {
		t.Fatal("unterminated quote accepted")
	}
}
