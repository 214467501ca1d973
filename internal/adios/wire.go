package adios

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/ndarray"
)

// The wire format is a compact little-endian binary encoding, framed by a
// magic and version so that stream corruption or cross-version mixups are
// detected rather than silently mis-decoded.
//
// Metadata blob:
//
//	magic "SBM1"
//	u32 step
//	u32 nvars; per var:
//	    str name
//	    u8  ndim; per dim: str label, u64 global size
//	    per dim: u64 box offset, u64 box count
//	u32 nattrs; per attr (sorted by name): str name, str value
//
// Payload blob (v2, the only version written):
//
//	magic "SBP2"
//	u32 nvars; per var: str name, u64 nvalues,
//	    zero bytes up to the next multiple of 8 from the frame start,
//	    nvalues * f64
//
// Strings are u32 length + bytes.
//
// Float blocks move in bulk: on a little-endian host the encoder
// reinterprets the []float64 as raw bytes (one memmove instead of a
// per-value store loop), and the decoder returns a []float64 view that
// aliases the frame. The padding puts every float block on an 8-byte
// boundary of the frame, so a frame that itself starts 8-byte aligned —
// any heap or pooled buffer — decodes with no copy at all. A big-endian
// host, or a frame sitting at an unaligned address, falls back to a
// copy, so the bytes on the wire are identical everywhere.
//
// Version 1 ("SBP1") is the same layout without the padding. It is still
// decoded, through the copy fallback, so recordings made before v2 replay.
const (
	metaMagic      = "SBM1"
	payloadMagic   = "SBP2"
	payloadMagicV1 = "SBP1"
)

// hostLittleEndian reports whether float64 bits can be moved to and from
// the little-endian wire format with a plain memory copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// pad8 is how many zero bytes follow offset n to reach an 8-byte boundary.
func pad8(n int) int { return -n & 7 }

type wireWriter struct {
	buf   []byte
	start int // len(buf) where the frame being written begins
}

func (w *wireWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *wireWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *wireWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *wireWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// f64s writes a value count, the padding that aligns the block within
// the frame, and the values.
func (w *wireWriter) f64s(vals []float64) {
	w.u64(uint64(len(vals)))
	for range pad8(len(w.buf) - w.start) {
		w.buf = append(w.buf, 0)
	}
	if len(vals) == 0 {
		return
	}
	if hostLittleEndian {
		src := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*8)
		w.buf = append(w.buf, src...)
		return
	}
	for _, v := range vals {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
	}
}

type wireReader struct {
	buf []byte
	pos int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("adios: decode: "+format, args...)
	}
}

func (r *wireReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.pos+n > len(r.buf) {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.pos, len(r.buf))
		return false
	}
	return true
}

func (r *wireReader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *wireReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *wireReader) str() string {
	n := int(r.u32())
	if n > len(r.buf)-r.pos {
		r.fail("truncated string of length %d", n)
		return ""
	}
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

// f64s decodes one float block: its count, then (padded is set for v2
// frames) the zero padding that aligns it, then the values. On a
// little-endian host with the block 8-byte aligned in memory, the
// returned slice ALIASES r.buf — zero copy. Callers own the aliasing
// contract (see DecodePayload).
func (r *wireReader) f64s(padded bool) []float64 {
	n := r.u64()
	if padded && r.need(pad8(r.pos)) {
		for _, b := range r.buf[r.pos : r.pos+pad8(r.pos)] {
			if b != 0 {
				r.fail("nonzero padding before float block at offset %d", r.pos)
				break
			}
		}
		r.pos += pad8(r.pos)
	}
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos)/8 {
		r.fail("truncated float block of %d values", n)
		return nil
	}
	if n == 0 {
		return []float64{}
	}
	src := r.buf[r.pos : r.pos+int(n)*8]
	r.pos += int(n) * 8
	if hostLittleEndian {
		if uintptr(unsafe.Pointer(unsafe.SliceData(src)))%8 == 0 {
			return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(src))), n)
		}
		// Unaligned frame (a v1 frame, or a frame at an unaligned
		// address): one memmove into fresh, aligned storage.
		out := make([]float64, n)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), len(src)), src)
		return out
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return out
}

func (r *wireReader) magic(want string) {
	if !r.need(len(want)) {
		return
	}
	if got := r.buf[r.pos : r.pos+len(want)]; string(got) != want {
		r.fail("bad magic %q, want %q", got, want)
		return
	}
	r.pos += len(want)
}

// MetaSize returns the exact encoded size of a metadata blob, so a
// caller can encode into a pre-sized buffer without reallocation.
func MetaSize(m *BlockMeta) int {
	n := len(metaMagic) + 4 + 4 // magic, step, nvars
	for _, v := range m.Vars {
		n += 4 + len(v.Name) + 1 // name, ndim
		for _, d := range v.GlobalDims {
			n += 4 + len(d.Name) + 8 // label, size
		}
		n += len(v.GlobalDims) * 16 // box offset+count per dim
	}
	n += 4 // nattrs
	for k, v := range m.Attrs {
		n += 4 + len(k) + 4 + len(v)
	}
	return n
}

// AppendMeta serializes a block's metadata onto dst and returns the
// extended slice. With cap(dst)-len(dst) >= MetaSize(m) no allocation
// occurs and the result shares dst's backing array.
func AppendMeta(dst []byte, m *BlockMeta) []byte {
	w := &wireWriter{buf: dst}
	w.buf = append(w.buf, metaMagic...)
	w.u32(uint32(m.Step))
	w.u32(uint32(len(m.Vars)))
	for _, v := range m.Vars {
		w.str(v.Name)
		w.u8(uint8(len(v.GlobalDims)))
		for _, d := range v.GlobalDims {
			w.str(d.Name)
			w.u64(uint64(d.Size))
		}
		for i := range v.GlobalDims {
			w.u64(uint64(v.Box.Offsets[i]))
			w.u64(uint64(v.Box.Counts[i]))
		}
	}
	names := make([]string, 0, len(m.Attrs))
	for k := range m.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	w.u32(uint32(len(names)))
	for _, k := range names {
		w.str(k)
		w.str(m.Attrs[k])
	}
	return w.buf
}

// EncodeMeta serializes a block's metadata into a fresh, exactly-sized
// buffer.
func EncodeMeta(m *BlockMeta) []byte {
	return AppendMeta(make([]byte, 0, MetaSize(m)), m)
}

// DecodeMeta parses a metadata blob produced by EncodeMeta. The returned
// BlockMeta shares nothing with buf.
func DecodeMeta(buf []byte) (*BlockMeta, error) {
	r := &wireReader{buf: buf}
	r.magic(metaMagic)
	m := &BlockMeta{Step: int(r.u32())}
	nvars := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	// Pre-size from the decoded counts, capped against the buffer length:
	// each declared variable occupies at least 5 body bytes and each
	// attribute at least 8, so larger counts are certainly truncated and
	// must not provoke a giant allocation.
	m.Vars = make([]VarMeta, 0, min(nvars, len(buf)/5+1))
	for i := 0; i < nvars && r.err == nil; i++ {
		var v VarMeta
		v.Name = r.str()
		ndim := int(r.u8())
		v.GlobalDims = make([]ndarray.Dim, ndim)
		for d := 0; d < ndim; d++ {
			v.GlobalDims[d].Name = r.str()
			v.GlobalDims[d].Size = int(r.u64())
		}
		v.Box = ndarray.Box{Offsets: make([]int, ndim), Counts: make([]int, ndim)}
		for d := 0; d < ndim; d++ {
			v.Box.Offsets[d] = int(r.u64())
			v.Box.Counts[d] = int(r.u64())
		}
		m.Vars = append(m.Vars, v)
	}
	nattrs := int(r.u32())
	m.Attrs = make(map[string]string, min(nattrs, len(buf)/8+1))
	for i := 0; i < nattrs && r.err == nil; i++ {
		k := r.str()
		m.Attrs[k] = r.str()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(buf) {
		return nil, fmt.Errorf("adios: decode: %d trailing bytes in metadata", len(buf)-r.pos)
	}
	return m, nil
}

// PayloadSize returns the exact encoded size of a payload blob. names
// and data must be parallel slices.
func PayloadSize(names []string, data [][]float64) int {
	n := len(payloadMagic) + 4
	for i, name := range names {
		n += 4 + len(name) + 8
		n += pad8(n) + 8*len(data[i])
	}
	return n
}

// AppendPayload serializes the per-variable data blocks onto dst and
// returns the extended slice. With cap(dst)-len(dst) >= PayloadSize no
// allocation occurs and the result shares dst's backing array. The float
// blocks are aligned relative to len(dst), where the frame begins.
func AppendPayload(dst []byte, names []string, data [][]float64) []byte {
	w := &wireWriter{buf: dst, start: len(dst)}
	w.buf = append(w.buf, payloadMagic...)
	w.u32(uint32(len(names)))
	for i, name := range names {
		w.str(name)
		w.f64s(data[i])
	}
	return w.buf
}

// EncodePayload serializes the per-variable data blocks into a fresh,
// exactly-sized buffer. names and data must be parallel slices.
func EncodePayload(names []string, data [][]float64) []byte {
	return AppendPayload(make([]byte, 0, PayloadSize(names, data)), names, data)
}

// DecodePayload parses a payload blob, v2 or v1, into a name → values
// map.
//
// Aliasing contract: where a float block sits 8-byte aligned in memory
// (every block of a v2 frame that starts at an 8-byte-aligned address,
// as heap and pooled buffers do), the returned value slices are views
// into buf itself — no copy is made. The views are valid exactly as long
// as buf is: a caller fetching frames from a pooled transport must drop
// every decoded view before releasing the step that owns the frame.
// Callers that need the values to outlive buf must copy them out.
func DecodePayload(buf []byte) (map[string][]float64, error) {
	r := &wireReader{buf: buf}
	v1 := len(buf) >= len(payloadMagicV1) && string(buf[:len(payloadMagicV1)]) == payloadMagicV1
	if v1 {
		r.magic(payloadMagicV1)
	} else {
		r.magic(payloadMagic)
	}
	n := int(r.u32())
	// Cap the pre-allocation: n is attacker-controllable in a corrupt
	// frame, and each declared variable needs at least 12 bytes of body,
	// so anything larger than len(buf)/12 is certainly truncated anyway.
	out := make(map[string][]float64, min(n, len(buf)/12+1))
	for i := 0; i < n && r.err == nil; i++ {
		name := r.str()
		out[name] = r.f64s(!v1)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(buf) {
		return nil, fmt.Errorf("adios: decode: %d trailing bytes in payload", len(buf)-r.pos)
	}
	return out, nil
}
