package streamlog

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// TestAppendAllocatesNothing gates the append path: once the framing
// buffer has grown to a step's shape, journaling another step of that
// shape allocates nothing, and no payload byte is ever staged in it.
func TestAppendAllocatesNothing(t *testing.T) {
	const ranks, paySize = 3, 2 << 20
	l := mustLog(t, t.TempDir(), Options{SegmentBytes: 1 << 40})
	if err := l.SetConfig(Config{WriterSize: ranks, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	metas := make([][]byte, ranks)
	payloads := make([][]byte, ranks)
	for r := range metas {
		metas[r] = blob(0, r, 61)
		payloads[r] = blob(0, r, paySize)
	}
	step := 0
	appendOne := func() {
		if err := l.Append(step, metas, payloads); err != nil {
			t.Fatal(err)
		}
		step++
	}
	appendOne() // warm-up: segment, config record and framing buffer
	if allocs := testing.AllocsPerRun(8, appendOne); allocs != 0 {
		t.Fatalf("steady-state Append allocates %.1f times per step, want 0", allocs)
	}

	// No payload is staged: the log's buffer never grew past the largest
	// record's framing and metas. Staging payloads makes it ~6 MB.
	l.mu.Lock()
	defer l.mu.Unlock()
	seg := l.activeSegment()
	var heads int64
	for s := 0; s < step; s++ {
		end := seg.size
		if s+1 < step {
			end = l.index[s+1].off
		}
		heads = max(heads, end-l.index[s].off-ranks*paySize)
	}
	if got := int64(cap(l.scratch)); got > heads {
		t.Fatalf("framing buffer holds %d bytes, more than the %d of a record without its payloads", got, heads)
	}
}

// alignedLog journals, for 1–3 writer ranks, one step per meta length
// 0–16 with payloads of a length that also drifts, so the records land
// at every residue mod 8. Segments hold a few steps each, so the early
// steps are sealed and the last is in the active segment.
func alignedLog(t *testing.T, dir string, ranks int) {
	t.Helper()
	l := mustLog(t, dir, Options{SegmentBytes: 512})
	if err := l.SetConfig(Config{WriterSize: ranks, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s <= 16; s++ {
		metas := make([][]byte, ranks)
		payloads := make([][]byte, ranks)
		for r := range metas {
			metas[r] = blob(s, r, s)
			payloads[r] = blob(s, r, 40+s+r)
		}
		if err := l.Append(s, metas, payloads); err != nil {
			t.Fatal(err)
		}
	}
}

// checkAligned reads every step of an alignedLog through ReadStepView
// and fails unless each payload is byte-equal and starts 8-byte aligned.
// It returns how many steps were served from a mapping.
func checkAligned(t *testing.T, l *Log, ranks int) (mapped int) {
	t.Helper()
	for s := 0; s <= 16; s++ {
		metas, payloads, release, err := l.ReadStepView(s)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		for r := 0; r < ranks; r++ {
			if !bytes.Equal(metas[r], blob(s, r, s)) || !bytes.Equal(payloads[r], blob(s, r, 40+s+r)) {
				t.Fatalf("step %d rank %d: blobs differ", s, r)
			}
			if addr := uintptr(unsafe.Pointer(unsafe.SliceData(payloads[r]))); addr%8 != 0 {
				t.Fatalf("step %d rank %d: payload at address %#x, not 8-byte aligned", s, r, addr)
			}
		}
		l.mu.Lock()
		if l.index[s].seg.mem != nil {
			mapped++
		}
		l.mu.Unlock()
		release()
	}
	return mapped
}

func TestPayloadsAreAligned(t *testing.T) {
	for ranks := 1; ranks <= 3; ranks++ {
		dir := t.TempDir()
		alignedLog(t, dir, ranks)

		l := mustLog(t, dir, Options{SegmentBytes: 512})
		mapped := checkAligned(t, l, ranks)
		if mmapSupported() && (mapped == 0 || mapped == 17) {
			t.Fatalf("ranks %d: %d of 17 steps mapped, want both sealed and active reads", ranks, mapped)
		}
		l.Close()

		nm := mustLog(t, dir, Options{NoMmap: true, ReadOnly: true})
		if mapped := checkAligned(t, nm, ranks); mapped != 0 {
			t.Fatalf("ranks %d: NoMmap log mapped %d steps", ranks, mapped)
		}
	}
}

// TestReadsV1Records keeps the original, unpadded step record readable:
// a segment framed by hand in the v1 layout reads back byte-equal
// through ReadStep and ReadStepView, and a writable open appends
// v2 steps behind it.
func TestReadsV1Records(t *testing.T) {
	const ranks, steps = 2, 4
	v1Meta := func(s, r int) []byte { return blob(s, r, 3+s) }
	v1Pay := func(s, r int) []byte { return blob(s, r, 29+r) }
	seg := fuzzRecord(recConfig, encodeConfig(Config{WriterSize: ranks, QueueDepth: 2}))
	for s := 0; s < steps; s++ {
		var blobs [][]byte
		for r := 0; r < ranks; r++ {
			blobs = append(blobs, v1Meta(s, r), v1Pay(s, r))
		}
		seg = append(seg, fuzzRecord(recStep, fuzzStepBody(s, blobs...))...)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "00000000.seg")
	if err := os.WriteFile(path, seg, 0o666); err != nil {
		t.Fatal(err)
	}
	check := func(what string, s int, metas, payloads [][]byte) {
		t.Helper()
		if len(metas) != ranks || len(payloads) != ranks {
			t.Fatalf("%s step %d: %d/%d blobs", what, s, len(metas), len(payloads))
		}
		for r := 0; r < ranks; r++ {
			if !bytes.Equal(metas[r], v1Meta(s, r)) || !bytes.Equal(payloads[r], v1Pay(s, r)) {
				t.Fatalf("%s step %d rank %d: blobs differ", what, s, r)
			}
		}
	}

	ro := mustLog(t, dir, Options{ReadOnly: true})
	if got := ro.NextStep(); got != steps {
		t.Fatalf("NextStep = %d, want %d", got, steps)
	}
	for s := 0; s < steps; s++ {
		metas, payloads, err := ro.ReadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		check("ReadStep", s, metas, payloads)
		metas, payloads, release, err := ro.ReadStepView(s)
		if err != nil {
			t.Fatal(err)
		}
		check("ReadStepView", s, metas, payloads)
		release()
	}
	ro.Close()
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, seg) {
		t.Fatalf("read-only open changed the v1 segment (err %v)", err)
	}

	// A writable open resumes behind the v1 records in the new layout.
	l := mustLog(t, dir, Options{})
	appendStep(t, l, steps, ranks)
	checkStep(t, l, steps, ranks)
	if err := l.AppendEnd(steps); err != nil {
		t.Fatal(err)
	}
	l.Close()
	r := mustLog(t, dir, Options{ReadOnly: true})
	metas, payloads, err := r.ReadStep(0)
	if err != nil {
		t.Fatal(err)
	}
	check("mixed", 0, metas, payloads)
	checkStep(t, r, steps, ranks)
	if last, ended := r.Ended(); !ended || last != steps {
		t.Fatalf("Ended() = %d, %v; want %d, true", last, ended, steps)
	}
}

// TestTornV2TailEveryOffset cuts the segment at every byte inside its
// last, padded step record: a writable open heals back to the previous
// step, and a read-only open serves the same prefix without touching
// the file.
func TestTornV2TailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l := mustLog(t, dir, Options{})
	if err := l.SetConfig(Config{WriterSize: 2, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		// Odd meta lengths force non-zero padding in front of payloads.
		if err := l.Append(s, [][]byte{blob(s, 0, 5), blob(s, 1, 3)},
			[][]byte{blob(s, 0, 24), blob(s, 1, 17)}); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	last := l.index[2].off
	l.mu.Unlock()
	l.Close()
	clean, err := os.ReadFile(filepath.Join(dir, "00000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	pad0 := last + recFrame + 8 + 4 + 5 + 4 // step, nranks, meta length, meta, payload length
	pad1 := pad0 + 1 + int64(clean[pad0]) + 24 + 4 + 3 + 4
	if clean[pad0] == 0 && clean[pad1] == 0 {
		t.Fatal("last record has no padding in front of its payloads")
	}
	checkPrefix := func(l *Log, cut int) {
		t.Helper()
		if got := l.NextStep(); got != 2 {
			t.Fatalf("cut at %d: NextStep = %d, want 2", cut, got)
		}
		for s := 0; s < 2; s++ {
			metas, payloads, err := l.ReadStep(s)
			if err != nil {
				t.Fatalf("cut at %d: step %d: %v", cut, s, err)
			}
			if !bytes.Equal(metas[0], blob(s, 0, 5)) || !bytes.Equal(payloads[1], blob(s, 1, 17)) {
				t.Fatalf("cut at %d: step %d blobs differ", cut, s)
			}
		}
	}
	for cut := int(last) + 1; cut < len(clean); cut++ {
		torn := clean[:cut]
		sub := t.TempDir()
		path := filepath.Join(sub, "00000000.seg")
		if err := os.WriteFile(path, torn, 0o666); err != nil {
			t.Fatal(err)
		}
		ro, err := OpenLog(sub, Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("cut at %d: read-only open: %v", cut, err)
		}
		checkPrefix(ro, cut)
		ro.Close()
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, torn) {
			t.Fatalf("cut at %d: read-only open changed the file (err %v)", cut, err)
		}

		rw, err := OpenLog(sub, Options{})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		checkPrefix(rw, cut)
		rw.Close()
		if info, err := os.Stat(path); err != nil || info.Size() != last {
			t.Fatalf("cut at %d: healed to %v bytes, want %d (err %v)", cut, info.Size(), last, err)
		}
	}
}

// TestDecodeStepV2Rejects pins the padding checks: a pad count above 7
// or a non-zero pad byte is corruption even when the CRC is clean.
func TestDecodeStepV2Rejects(t *testing.T) {
	metas, payloads := [][]byte{[]byte("abc")}, [][]byte{[]byte("payload")}
	rec := make([]byte, stepRecordLen(0, metas, payloads))
	putStepV2(rec[recFrame:], recFrame, 7, metas, payloads)
	body := rec[recFrame:]
	padAt := 8 + 4 + 3 + 4 // step, nranks, meta length, meta, payload length
	if body[padAt] == 0 {
		t.Fatal("test record has no padding")
	}
	if step, _, got, ok := decodeStep(recStepV2, body); !ok || step != 7 || !bytes.Equal(got[0], payloads[0]) {
		t.Fatalf("clean record: step %d ok %v", step, ok)
	}
	if _, _, _, ok := decodeStep(recStep, body); ok {
		t.Fatal("padded body decoded as v1")
	}
	bad := append([]byte(nil), body...)
	bad[padAt+1] = 1
	if _, _, _, ok := decodeStep(recStepV2, bad); ok {
		t.Fatal("non-zero pad byte accepted")
	}
	bad = append([]byte(nil), body...)
	bad[padAt] = 8
	if _, _, _, ok := decodeStep(recStepV2, bad); ok {
		t.Fatal("pad count 8 accepted")
	}
	binary.LittleEndian.PutUint32(bad[padAt-4:], 1<<20)
	bad[padAt] = body[padAt]
	if _, _, _, ok := decodeStep(recStepV2, bad); ok {
		t.Fatal("payload length past the body accepted")
	}
}
