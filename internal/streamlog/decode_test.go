package streamlog_test

import (
	"testing"
	"unsafe"

	"repro/internal/adios"
	"repro/internal/streamlog"
)

// TestSealedPayloadDecodesInPlace is the point of the padded step
// record: an SBP2 payload journaled behind an odd-length meta blob and
// read back from a sealed segment decodes into float slices that alias
// the mapping rather than a copy of it.
func TestSealedPayloadDecodesInPlace(t *testing.T) {
	l, err := streamlog.OpenLog(t.TempDir(), streamlog.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.SetConfig(streamlog.Config{WriterSize: 1, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	pay := adios.EncodePayload([]string{"v"}, [][]float64{vals})
	for s := 0; s < 3; s++ {
		if err := l.Append(s, [][]byte{[]byte("odd")}, [][]byte{pay}); err != nil {
			t.Fatal(err)
		}
	}
	_, payloads, release, err := l.ReadStepView(0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	out, err := adios.DecodePayload(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	got := out["v"]
	if len(got) != len(vals) || got[len(got)-1] != vals[len(vals)-1] {
		t.Fatalf("decoded %d values, want %v", len(got), vals)
	}
	view := payloads[0]
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	if p := uintptr(unsafe.Pointer(unsafe.SliceData(got))); p < lo || p >= lo+uintptr(len(view)) {
		t.Fatalf("decoded floats at %#x lie outside the view [%#x, %#x): the payload was copied",
			p, lo, lo+uintptr(len(view)))
	}
}
