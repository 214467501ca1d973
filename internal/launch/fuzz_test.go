package launch

import (
	"testing"
)

// FuzzParse feeds arbitrary scripts to the parser: it must either return
// an error or a spec that Format can render and Parse can re-read to the
// same stages — never panic, never silently drop a stage.
func FuzzParse(f *testing.F) {
	f.Add(fig8)
	f.Add("aprun -n 1 histogram a.fp x 4")
	f.Add("aprun histogram 'a b.fp' x 4 &\nwait")
	f.Add("# only a comment")
	f.Add("aprun -q 3 -n 2 magnitude a.fp x b.fp y &")
	f.Add("transport uds /tmp/b.sock\nfuse\naprun -n 1 histogram a.fp x 4 &\nwait")
	f.Add("transport inproc\ntransport tcp 1.2.3.4:7\naprun -n 1 histogram a.fp x 4")
	f.Add("fuse\nfuse\naprun -n 1 histogram a.fp x 4")
	f.Add("fuse extra\naprun -n 1 histogram a.fp x 4")
	f.Add("supervise restarts=3 backoff=20ms step-timeout=1m\naprun -n 1 histogram a.fp x 4 &\nwait")
	f.Fuzz(func(t *testing.T, script string) {
		spec, err := Parse("fuzz", script)
		if err != nil {
			return
		}
		text, err := Format(spec)
		if err != nil {
			// Parsed specs always have component names, so Format must work.
			t.Fatalf("Format of parsed spec failed: %v", err)
		}
		again, err := Parse("fuzz2", text)
		if err != nil {
			t.Fatalf("round trip failed: %v\nscript: %q\nformatted: %q", err, script, text)
		}
		if len(again.Stages) != len(spec.Stages) {
			t.Fatalf("round trip changed stage count: %d vs %d", len(again.Stages), len(spec.Stages))
		}
		if again.Transport != spec.Transport {
			t.Fatalf("round trip changed transport: %+v vs %+v", again.Transport, spec.Transport)
		}
		if again.Fuse != spec.Fuse {
			t.Fatalf("round trip changed fuse: %v vs %v", again.Fuse, spec.Fuse)
		}
		if again.Restart != spec.Restart {
			t.Fatalf("round trip changed the supervise policy: %+v vs %+v", again.Restart, spec.Restart)
		}
		for i := range spec.Stages {
			a, b := spec.Stages[i], again.Stages[i]
			if a.Component != b.Component || a.Procs != b.Procs || a.QueueDepth != b.QueueDepth || len(a.Args) != len(b.Args) {
				t.Fatalf("round trip changed stage %d: %+v vs %+v", i, a, b)
			}
		}
	})
}

// FuzzTokenize checks the tokenizer never panics and respects quoting.
func FuzzTokenize(f *testing.F) {
	f.Add(`a "b c" d`)
	f.Add(`''`)
	f.Add("a\tb")
	f.Fuzz(func(t *testing.T, line string) {
		toks, err := tokenize(line)
		if err != nil {
			return
		}
		for _, tok := range toks {
			_ = tok
		}
	})
}
