package controlplane

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeSubmitRequest drives the admin API's bytes-off-the-wire
// path: whatever arrives, the decoder must return a structured error or
// a vetted request — never panic, and never let an unbounded or
// malformed payload through. Accepted scripts are additionally pushed
// through ValidateScript, the same second stage the handler runs, so
// the fuzzer explores the full submit pipeline.
func FuzzDecodeSubmitRequest(f *testing.F) {
	f.Add("text/plain", "wf", "key", []byte("aprun -n 2 gromacs pos.fp xyz 64 4 &\nwait\n"))
	f.Add("", "", "", []byte("aprun -n 1 histogram dist.fp radii 4 out.txt"))
	f.Add("application/json", "", "", []byte(`{"name":"j","script":"aprun -n 1 scale a.fp x b.fp y 2","idempotency_key":"k"}`))
	f.Add("application/json; charset=utf-8", "n", "k", []byte(`{"script":"transport tcp 1.2.3.4:5\naprun -n 1 stats a.fp x"}`))
	f.Add("text/plain", "a\nb", "", []byte("aprun"))
	f.Add("application/json", "", "", []byte(`[{"script":1}]`))
	f.Add("text/plain", "", "", []byte("log /tmp/x\nreplay /tmp/y\nfuse\nwait"))
	f.Fuzz(func(t *testing.T, contentType, name, idemKey string, body []byte) {
		req, err := DecodeSubmitRequest(contentType, name, idemKey, body)
		if err != nil {
			return
		}
		// Invariants of an accepted request.
		if strings.TrimSpace(req.Script) == "" {
			t.Fatalf("decoder accepted an empty script: %+v", req)
		}
		if !utf8.ValidString(req.Script) {
			t.Fatal("decoder accepted a non-UTF-8 script")
		}
		if len(req.Script) > maxScriptBytes || len(req.Name) > 256 || len(req.IdempotencyKey) > 256 {
			t.Fatalf("decoder accepted an oversized field: %d/%d/%d",
				len(req.Script), len(req.Name), len(req.IdempotencyKey))
		}
		if strings.ContainsAny(req.Name, "\r\n") || strings.ContainsAny(req.IdempotencyKey, "\r\n") {
			t.Fatal("decoder accepted a multi-line name or key")
		}
		// Stage two must behave the same way: structured errors only.
		spec, err := ValidateScript(req.Name, req.Script)
		if err != nil {
			return
		}
		if len(spec.Stages) == 0 {
			t.Fatal("ValidateScript accepted a spec with no stages")
		}
		if spec.Transport.Kind != "" || spec.LogDir != "" || len(spec.EdgeTransports) > 0 {
			t.Fatalf("ValidateScript let a fabric-owning directive through: %+v", spec)
		}
	})
}
