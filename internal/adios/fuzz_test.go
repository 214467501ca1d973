package adios

import (
	"testing"

	"repro/internal/ndarray"
)

// The decoders face bytes from the network (TCP transport) and from
// disk (file-reader component); they must reject arbitrary corruption
// with an error — never panic, never over-allocate, never mis-decode
// silently. Fuzzing drives that contract; the seeds below also run as
// ordinary cases under plain `go test`.

func FuzzDecodeMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SBM1"))
	f.Add(EncodeMeta(&BlockMeta{Step: 3, Attrs: map[string]string{"a": "b"}}))
	f.Add(EncodeMeta(&BlockMeta{
		Step: 9,
		Vars: []VarMeta{{
			Name:       "atoms",
			GlobalDims: []ndarray.Dim{{Name: "n", Size: 64}, {Name: "p", Size: 5}},
			Box:        ndarray.Box{Offsets: []int{32, 0}, Counts: []int{32, 5}},
		}},
		Attrs: map[string]string{},
	}))
	f.Add(EncodePayload([]string{"x"}, [][]float64{{1, 2, 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMeta(data)
		if err == nil {
			// A successful decode must re-encode and decode to the same
			// metadata (the codec is canonical).
			again, err := DecodeMeta(EncodeMeta(m))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if again.Step != m.Step || len(again.Vars) != len(m.Vars) || len(again.Attrs) != len(m.Attrs) {
				t.Fatalf("decode not canonical: %+v vs %+v", m, again)
			}
		}
	})
}

func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte{})
	// Both payload versions: v2 is written, v1 is still read.
	for _, magic := range []string{payloadMagic, payloadMagicV1} {
		f.Add([]byte(magic))
		// Regression: a corrupt frame declaring ~2^26 variables must not
		// pre-allocate gigabytes before the truncation check trips.
		f.Add([]byte(magic + "\x02\x00\x00\x04\x01\x00\x00\x00a"))
	}
	f.Add(EncodePayload(nil, nil))
	f.Add(EncodePayload([]string{"a", "b"}, [][]float64{{1}, {2, 3}}))
	f.Add(appendV1Payload(nil, []string{"a", "b"}, [][]float64{{1}, {2, 3}}))
	f.Add(EncodeMeta(&BlockMeta{Step: 1, Attrs: map[string]string{}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodePayload(data)
		if err == nil {
			names := make([]string, 0, len(vals))
			blocks := make([][]float64, 0, len(vals))
			for name, v := range vals {
				names = append(names, name)
				blocks = append(blocks, v)
			}
			if _, err := DecodePayload(EncodePayload(names, blocks)); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
		}
	})
}

func FuzzParseConfig(f *testing.F) {
	f.Add("")
	f.Add("<adios-config/>")
	f.Add(`<adios-config><adios-group name="g"><var name="n"/><var name="a" dimensions="n"/></adios-group></adios-config>`)
	f.Add(`<adios-config><method group="g" method="FLEXPATH" parameters="QUEUE_SIZE=4"/></adios-config>`)
	f.Fuzz(func(t *testing.T, doc string) {
		cfg, err := ParseConfig([]byte(doc))
		if err == nil && cfg == nil {
			t.Fatal("nil config without error")
		}
	})
}
