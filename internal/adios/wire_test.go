package adios

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ndarray"
	"repro/internal/pool"
)

func sampleMeta() *BlockMeta {
	return &BlockMeta{
		Step: 7,
		Vars: []VarMeta{
			{
				Name: "atoms",
				GlobalDims: []ndarray.Dim{
					{Name: "nparticles", Size: 1024},
					{Name: "nprops", Size: 5},
				},
				Box: ndarray.Box{Offsets: []int{256, 0}, Counts: []int{256, 5}},
			},
			{
				Name:       "energy",
				GlobalDims: []ndarray.Dim{{Name: "n", Size: 16}},
				Box:        ndarray.Box{Offsets: []int{0}, Counts: []int{16}},
			},
		},
		Attrs: map[string]string{
			"props": "ID,Type,vx,vy,vz",
			"units": "lj",
		},
	}
}

func TestMetaRoundTrip(t *testing.T) {
	m := sampleMeta()
	got, err := DecodeMeta(EncodeMeta(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != m.Step || len(got.Vars) != len(m.Vars) {
		t.Fatalf("got %+v", got)
	}
	for i, v := range got.Vars {
		w := m.Vars[i]
		if v.Name != w.Name || len(v.GlobalDims) != len(w.GlobalDims) {
			t.Fatalf("var %d = %+v, want %+v", i, v, w)
		}
		for d := range v.GlobalDims {
			if v.GlobalDims[d] != w.GlobalDims[d] {
				t.Fatalf("var %d dim %d = %v, want %v", i, d, v.GlobalDims[d], w.GlobalDims[d])
			}
			if v.Box.Offsets[d] != w.Box.Offsets[d] || v.Box.Counts[d] != w.Box.Counts[d] {
				t.Fatalf("var %d box = %v, want %v", i, v.Box, w.Box)
			}
		}
	}
	if len(got.Attrs) != 2 || got.Attrs["props"] != "ID,Type,vx,vy,vz" || got.Attrs["units"] != "lj" {
		t.Fatalf("attrs = %v", got.Attrs)
	}
}

func TestMetaEmpty(t *testing.T) {
	m := &BlockMeta{Step: 0, Attrs: map[string]string{}}
	got, err := DecodeMeta(EncodeMeta(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 0 || len(got.Vars) != 0 || len(got.Attrs) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	names := []string{"atoms", "energy"}
	data := [][]float64{{1.5, -2.25, math.Inf(1), 0}, {}}
	got, err := DecodePayload(EncodePayload(names, data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d vars", len(got))
	}
	for i, v := range got["atoms"] {
		if v != data[0][i] {
			t.Fatalf("atoms = %v", got["atoms"])
		}
	}
	if got["energy"] == nil || len(got["energy"]) != 0 {
		t.Fatalf("energy = %v", got["energy"])
	}
}

func TestPayloadNaNRoundTrip(t *testing.T) {
	got, err := DecodePayload(EncodePayload([]string{"v"}, [][]float64{{math.NaN()}}))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got["v"][0]) {
		t.Fatalf("NaN did not survive: %v", got["v"][0])
	}
}

func TestDecodeMetaRejectsCorruption(t *testing.T) {
	good := EncodeMeta(sampleMeta())
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"truncated":   good[:len(good)/2],
		"wrong kind":  EncodePayload([]string{"v"}, [][]float64{{1}}),
		"trailing":    append(append([]byte{}, good...), 0xFF),
		"short magic": good[:2],
	}
	for name, buf := range cases {
		if _, err := DecodeMeta(buf); err == nil {
			t.Errorf("DecodeMeta(%s) succeeded", name)
		}
	}
}

func TestDecodePayloadRejectsCorruption(t *testing.T) {
	good := EncodePayload([]string{"atoms"}, [][]float64{{1, 2, 3}})
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("YYYY"), good[4:]...),
		"truncated":  good[:len(good)-5],
		"wrong kind": EncodeMeta(sampleMeta()),
		"trailing":   append(append([]byte{}, good...), 1, 2),
	}
	for name, buf := range cases {
		if _, err := DecodePayload(buf); err == nil {
			t.Errorf("DecodePayload(%s) succeeded", name)
		}
	}
}

// A frame encoded into pooled storage — how every published step is
// encoded — decodes to views of the frame itself, whatever the variable
// names' lengths put ahead of the float blocks.
func TestDecodePayloadAliasesPooledFrame(t *testing.T) {
	for nameLen := 0; nameLen <= 16; nameLen++ {
		for nvars := 1; nvars <= 3; nvars++ {
			if nameLen == 0 && nvars > 1 {
				break // names are map keys: one empty name per frame
			}
			names := make([]string, nvars)
			data := make([][]float64, nvars)
			for i := range names {
				names[i] = strings.Repeat(string(rune('a'+i)), nameLen)
				data[i] = []float64{float64(i), -1.5, math.Pi}[:i+1]
			}
			b := pool.Get(PayloadSize(names, data))
			frame := AppendPayload(b.Bytes()[:0], names, data)
			if len(frame) != b.Len() {
				t.Fatalf("names %q: encoded %d bytes, PayloadSize %d", names, len(frame), b.Len())
			}
			got, err := DecodePayload(frame)
			if err != nil {
				t.Fatalf("names %q: %v", names, err)
			}
			lo := uintptr(unsafe.Pointer(&frame[0]))
			hi := lo + uintptr(len(frame))
			for i, name := range names {
				vals := got[name]
				if len(vals) != len(data[i]) {
					t.Fatalf("names %q: %q decoded %d values, want %d", names, name, len(vals), len(data[i]))
				}
				if p := uintptr(unsafe.Pointer(&vals[0])); p < lo || p >= hi {
					t.Errorf("name length %d, %d vars: %q was copied out of the frame", nameLen, len(names), name)
				}
				for j := range vals {
					if vals[j] != data[i][j] {
						t.Fatalf("names %q: %q = %v, want %v", names, name, vals, data[i])
					}
				}
			}
			b.Release()
		}
	}
}

// appendV1Payload hand-builds a version-1 frame: v2's layout without the
// alignment padding.
func appendV1Payload(dst []byte, names []string, data [][]float64) []byte {
	dst = append(dst, payloadMagicV1...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(names)))
	for i, name := range names {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
		dst = append(dst, name...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(data[i])))
		for _, v := range data[i] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// Recordings made before v2 still replay: a v1 frame decodes to the
// values its v2 re-encode decodes to, bit for bit.
func TestDecodePayloadReadsV1(t *testing.T) {
	names := []string{"atoms", "energy", "v"}
	data := [][]float64{{1.5, -2.25, math.Inf(1), math.NaN()}, {}, {math.Copysign(0, -1)}}
	v1 := appendV1Payload(nil, names, data)
	if string(v1[:4]) != "SBP1" {
		t.Fatalf("hand-built frame starts %q", v1[:4])
	}
	got1, err := DecodePayload(v1)
	if err != nil {
		t.Fatal(err)
	}
	reNames := make([]string, 0, len(got1))
	reData := make([][]float64, 0, len(got1))
	for name, vals := range got1 {
		reNames = append(reNames, name)
		reData = append(reData, vals)
	}
	v2 := EncodePayload(reNames, reData)
	if string(v2[:4]) != "SBP2" {
		t.Fatalf("re-encode starts %q, want SBP2", v2[:4])
	}
	got2, err := DecodePayload(v2)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		a, b := got1[name], got2[name]
		if len(a) != len(data[i]) || len(b) != len(data[i]) {
			t.Fatalf("%q: v1 %v, v2 %v, want %v", name, a, b, data[i])
		}
		for j := range a {
			want := math.Float64bits(data[i][j])
			if math.Float64bits(a[j]) != want || math.Float64bits(b[j]) != want {
				t.Fatalf("%q[%d]: v1 %x, v2 %x, want %x", name, j,
					math.Float64bits(a[j]), math.Float64bits(b[j]), want)
			}
		}
	}
}

// The alignment padding is part of the format: it must be zero and it
// must be there.
func TestDecodePayloadRejectsBadPadding(t *testing.T) {
	good := EncodePayload([]string{"atoms"}, [][]float64{{1.1, 2, 3}})
	// magic 4 + nvars 4 + name 4+5 + count 8 = 25: three pad bytes, then
	// the values at 32 (1.1's low bytes are nonzero).
	if len(good) != 32+3*8 {
		t.Fatalf("frame is %d bytes, want 56", len(good))
	}
	nonzero := append([]byte(nil), good...)
	nonzero[26] = 1
	cases := map[string][]byte{
		"nonzero padding":   nonzero,
		"truncated padding": good[:27],
		"missing padding":   append(append([]byte(nil), good[:25]...), good[32:]...),
	}
	for name, buf := range cases {
		_, err := DecodePayload(buf)
		if err == nil || !strings.HasPrefix(err.Error(), "adios: decode:") {
			t.Errorf("DecodePayload(%s) = %v, want an adios: decode: error", name, err)
		}
	}
}

func TestDecodeHugeLengthRejected(t *testing.T) {
	// A corrupt length prefix must not cause a giant allocation.
	w := &wireWriter{}
	w.buf = append(w.buf, payloadMagic...)
	w.u32(1)
	w.str("v")
	w.u64(1 << 60) // claims 2^60 floats
	if _, err := DecodePayload(w.buf); err == nil {
		t.Fatal("absurd length accepted")
	}
}

// Property: metadata with random shapes, boxes and attributes round-trips
// exactly.
func TestQuickMetaRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &BlockMeta{Step: r.Intn(1000), Attrs: map[string]string{}}
		for i := 0; i < r.Intn(4); i++ {
			nd := 1 + r.Intn(4)
			v := VarMeta{Name: randName(r)}
			v.Box = ndarray.Box{Offsets: make([]int, nd), Counts: make([]int, nd)}
			for d := 0; d < nd; d++ {
				size := 1 + r.Intn(100)
				v.GlobalDims = append(v.GlobalDims, ndarray.Dim{Name: randName(r), Size: size})
				v.Box.Offsets[d] = r.Intn(size)
				v.Box.Counts[d] = r.Intn(size - v.Box.Offsets[d] + 1)
			}
			m.Vars = append(m.Vars, v)
		}
		for i := 0; i < r.Intn(4); i++ {
			m.Attrs[randName(r)] = randName(r)
		}
		got, err := DecodeMeta(EncodeMeta(m))
		if err != nil {
			return false
		}
		if got.Step != m.Step || len(got.Vars) != len(m.Vars) || len(got.Attrs) != len(m.Attrs) {
			return false
		}
		for k, v := range m.Attrs {
			if got.Attrs[k] != v {
				return false
			}
		}
		for i := range m.Vars {
			a, b := m.Vars[i], got.Vars[i]
			if a.Name != b.Name || len(a.GlobalDims) != len(b.GlobalDims) {
				return false
			}
			for d := range a.GlobalDims {
				if a.GlobalDims[d] != b.GlobalDims[d] ||
					a.Box.Offsets[d] != b.Box.Offsets[d] || a.Box.Counts[d] != b.Box.Counts[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: payloads with random variables and values round-trip exactly
// (bit-for-bit, via Float64bits).
func TestQuickPayloadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(5)
		names := make([]string, n)
		data := make([][]float64, n)
		used := map[string]bool{}
		for i := 0; i < n; i++ {
			name := randName(r)
			for used[name] {
				name += "x"
			}
			used[name] = true
			names[i] = name
			vals := make([]float64, r.Intn(50))
			for j := range vals {
				vals[j] = r.NormFloat64()
			}
			data[i] = vals
		}
		got, err := DecodePayload(EncodePayload(names, data))
		if err != nil || len(got) != n {
			return false
		}
		for i, name := range names {
			g := got[name]
			if len(g) != len(data[i]) {
				return false
			}
			for j := range g {
				if math.Float64bits(g[j]) != math.Float64bits(data[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randName(r *rand.Rand) string {
	letters := "abcdefghij"
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func TestJoinSplitList(t *testing.T) {
	items := []string{"ID", "Type", "vx", "vy", "vz"}
	got := SplitList(JoinList(items))
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("got %v", got)
		}
	}
	if SplitList("") != nil {
		t.Fatal("SplitList(\"\") != nil")
	}
}
