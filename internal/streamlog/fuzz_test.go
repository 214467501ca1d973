package streamlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzRecord frames one record the way writeRecord does, for seeding.
func fuzzRecord(typ byte, body []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(1+len(body)))
	crc := crc32.Update(crc32.ChecksumIEEE([]byte{typ}), crc32.IEEETable, body)
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	rec = append(rec, typ)
	return append(rec, body...)
}

func fuzzStepBody(step int, blobs ...[]byte) []byte {
	body := binary.LittleEndian.AppendUint32(nil, uint32(step))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(blobs)/2))
	for _, b := range blobs {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(b)))
		body = append(body, b...)
	}
	return body
}

// putStepV2 is the contiguous layout of a recStepV2 body, the oracle
// Append's run-by-run write is checked against: body, whose first byte
// lands at file offset at, is exactly stepRecordLen-recFrame bytes,
// and each payload is copied in behind its padding to an 8-byte file
// offset. Every pad byte is written explicitly.
func putStepV2(body []byte, at int64, step int, metas, payloads [][]byte) {
	binary.LittleEndian.PutUint32(body[0:4], uint32(step))
	binary.LittleEndian.PutUint32(body[4:8], uint32(len(metas)))
	p := 8
	for i := range metas {
		binary.LittleEndian.PutUint32(body[p:], uint32(len(metas[i])))
		p += 4
		p += copy(body[p:], metas[i])
		binary.LittleEndian.PutUint32(body[p:], uint32(len(payloads[i])))
		pad := int(pad8(at + int64(p) + 5))
		body[p+4] = byte(pad)
		p += 5
		clear(body[p : p+pad])
		p += pad
		p += copy(body[p:], payloads[i])
	}
}

// fuzzStepV2Record frames a padded step record the way Append does for
// a record starting at file offset base; blobs alternate meta, payload.
func fuzzStepV2Record(base int64, step int, blobs ...[]byte) []byte {
	var metas, payloads [][]byte
	for i := 0; i+1 < len(blobs); i += 2 {
		metas, payloads = append(metas, blobs[i]), append(payloads, blobs[i+1])
	}
	rec := make([]byte, stepRecordLen(base, metas, payloads))
	putStepV2(rec[recFrame:], base+recFrame, step, metas, payloads)
	return fuzzRecord(recStepV2, rec[recFrame:])
}

// fuzzV2Seeds are v2 segments for both fuzzers, holding steps first
// and first+1 and an end record: a clean one with odd meta lengths (so
// payloads sit behind non-zero padding), and the same one with a pad
// byte set under a recomputed CRC — clean framing, corrupt body.
func fuzzV2Seeds(first int) (clean, badPad []byte) {
	cfg := fuzzRecord(recConfig, encodeConfig(Config{WriterSize: 2, QueueDepth: 2}))
	step0 := fuzzStepV2Record(int64(len(cfg)), first, []byte("abc"), []byte("payload!"), []byte("m"), []byte("p"))
	step1 := fuzzStepV2Record(int64(len(cfg)+len(step0)), first+1, []byte("odd"), []byte("xy"), nil, []byte("zzzzzzzzz"))
	end := fuzzRecord(recEnd, binary.LittleEndian.AppendUint32(nil, uint32(first+2)))
	clean = append(append(append(append([]byte{}, cfg...), step0...), step1...), end...)

	body := append([]byte(nil), step1[recFrame:]...)
	padAt := 8 + 4 + 3 + 4 // step, nranks, meta length, meta, payload length
	if body[padAt] == 0 {
		panic("fuzz seed has no padding")
	}
	body[padAt+1] = 0xee
	bad := fuzzRecord(recStepV2, body)
	badPad = append(append(append(append([]byte{}, cfg...), step0...), bad...), end...)
	return clean, badPad
}

// FuzzSegmentDecode feeds arbitrary bytes to the segment scanner as a
// single on-disk segment. The scan must never panic, must heal the file
// to a readable state, and every step it reports recovered must decode
// cleanly — the longest-valid-prefix contract under torn tails, bit
// flips, and truncated CRC frames.
func FuzzSegmentDecode(f *testing.F) {
	cfg := fuzzRecord(recConfig, encodeConfig(Config{WriterSize: 1, QueueDepth: 2}))
	step0 := fuzzRecord(recStep, fuzzStepBody(0, []byte("meta"), []byte("payload")))
	step1 := fuzzRecord(recStep, fuzzStepBody(1, []byte("m"), []byte("p")))
	retire := fuzzRecord(recRetire, binary.LittleEndian.AppendUint32(nil, 0))
	end := fuzzRecord(recEnd, binary.LittleEndian.AppendUint32(nil, 2))

	clean := append(append(append(append(append([]byte{}, cfg...), step0...), step1...), retire...), end...)
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                    // torn tail
	f.Add(append(clean[:7], clean[9:]...))         // bytes dropped mid-header
	f.Add([]byte{})                                // empty segment
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0}) // huge length, short file
	flipped := append([]byte(nil), clean...)
	flipped[len(cfg)+5] ^= 0x80 // bit flip inside step 0's CRC
	f.Add(flipped)
	v2, v2BadPad := fuzzV2Seeds(0)
	f.Add(v2)
	f.Add(v2[:len(v2)-11]) // torn inside the last padded step
	f.Add(v2BadPad)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000000.seg"), data, 0o666); err != nil {
			t.Skip()
		}
		l, err := OpenLog(dir, Options{})
		if err != nil {
			return // I/O-level failure is acceptable; panics are not
		}
		defer l.Close()
		next := l.NextStep()
		for s := l.FirstStep(); s < next; s++ {
			if _, _, err := l.ReadStep(s); err != nil {
				t.Fatalf("recovered step %d unreadable: %v", s, err)
			}
		}
		// The healed log must accept appends where the scan left off.
		if _, ok := l.Config(); !ok {
			if err := l.SetConfig(Config{WriterSize: 1, QueueDepth: 2}); err != nil {
				t.Fatal(err)
			}
		}
		cfg, _ := l.Config()
		metas := make([][]byte, cfg.WriterSize)
		payloads := make([][]byte, cfg.WriterSize)
		for i := range metas {
			metas[i] = []byte("resumed")
			payloads[i] = []byte("resumed")
		}
		if err := l.Append(next, metas, payloads); err != nil {
			t.Fatalf("append after heal: %v", err)
		}
	})
}

// FuzzReplayIter drives the replay walk — FirstStep up to NextStep
// through ReadStepView, as replay.ReadTrace reads a recording — over
// arbitrary (often corrupted or truncated) log directories opened
// read-only, split into up to two segment files to also exercise the
// cross-segment walk. The walk must never panic and never serve a torn
// step: every step it yields decoded cleanly from a CRC-valid record,
// and it stops at the head or at a descriptive error. The
// read-only open must leave the corrupted files byte-for-byte intact,
// and no view may leak regardless of where iteration stopped.
func FuzzReplayIter(f *testing.F) {
	cfg := fuzzRecord(recConfig, encodeConfig(Config{WriterSize: 1, QueueDepth: 2}))
	step0 := fuzzRecord(recStep, fuzzStepBody(0, []byte("meta"), []byte("payload")))
	step1 := fuzzRecord(recStep, fuzzStepBody(1, []byte("m"), []byte("p")))
	retire := fuzzRecord(recRetire, binary.LittleEndian.AppendUint32(nil, 0))
	end := fuzzRecord(recEnd, binary.LittleEndian.AppendUint32(nil, 2))

	clean := append(append(append(append(append([]byte{}, cfg...), step0...), step1...), retire...), end...)
	f.Add(clean, []byte{})
	f.Add(clean[:len(clean)-3], []byte{})                        // torn tail, no end record
	f.Add(append([]byte{}, cfg...), clean)                       // config-only head segment
	f.Add(clean[:len(cfg)+len(step0)], step1)                    // step split across segments
	f.Add([]byte{}, []byte{})                                    // empty log
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0}, []byte{1, 2, 3}) // huge length
	flipped := append([]byte(nil), clean...)
	flipped[len(cfg)+5] ^= 0x80 // bit flip inside step 0's CRC
	f.Add(flipped, []byte{})
	v2, v2BadPad := fuzzV2Seeds(0)
	f.Add(v2, []byte{})
	f.Add(v2BadPad, []byte{})
	v2Next, _ := fuzzV2Seeds(2)
	f.Add(clean[:len(cfg)+len(step0)+len(step1)], v2Next) // v1 steps 0-1, then v2 steps 2-3

	f.Fuzz(func(t *testing.T, seg0, seg1 []byte) {
		dir := t.TempDir()
		paths := []string{filepath.Join(dir, "00000000.seg")}
		if err := os.WriteFile(paths[0], seg0, 0o666); err != nil {
			t.Skip()
		}
		if len(seg1) > 0 {
			paths = append(paths, filepath.Join(dir, "00000001.seg"))
			if err := os.WriteFile(paths[1], seg1, 0o666); err != nil {
				t.Skip()
			}
		}
		l, err := OpenLog(dir, Options{ReadOnly: true})
		if err != nil {
			return // refusing corrupt input cleanly is fine; panicking is not
		}
		for step, head := l.FirstStep(), l.NextStep(); step < head; step++ {
			metas, payloads, release, err := l.ReadStepView(step)
			if err != nil {
				break // corruption detected — a clean stop
			}
			if len(metas) == 0 || len(metas) != len(payloads) {
				t.Fatalf("step %d served with %d/%d blobs", step, len(metas), len(payloads))
			}
			// Cross-check against the copying read path: a view must never
			// disagree with a pread of the same record.
			cm, cp, rerr := l.ReadStep(step)
			if rerr != nil {
				t.Fatalf("step %d served as a view but unreadable via ReadStep: %v", step, rerr)
			}
			for i := range cm {
				if string(cm[i]) != string(metas[i]) || string(cp[i]) != string(payloads[i]) {
					t.Fatalf("step %d rank %d: view and pread disagree", step, i)
				}
			}
			release()
			release() // releases are idempotent
		}
		if views := l.OpenViews(); views != 0 {
			t.Fatalf("%d views leaked after iteration", views)
		}
		for i, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			want := seg0
			if i == 1 {
				want = seg1
			}
			if len(data) != len(want) {
				t.Fatalf("read-only iteration mutated segment %d: %d bytes, was %d", i, len(data), len(want))
			}
		}
		l.Close()
	})
}

// FuzzAppendMatchesLayout is the byte-identity oracle for Append's
// run-by-run write. It appends a fuzzed-length first step, then steps
// of 1–4 ranks whose meta and payload lengths come from lens (empty
// ones included), and an end record, to a log whose segments are small
// enough to roll. Every segment file must equal the record stream the
// contiguous layout builds — putStepV2, framed and CRC'd by
// fuzzRecord, with a config record opening each segment — whatever
// padding the records land on.
func FuzzAppendMatchesLayout(f *testing.F) {
	for first := 0; first < 8; first++ {
		f.Add(uint8(first*9), uint8(first), []byte{3, 17, 0, 0, 5, 8, 1, 255, 2, 9, 7, 1, 0, 30, 11, 4}, uint16(first*97))
	}
	f.Fuzz(func(t *testing.T, first, ranks uint8, lens []byte, segBytes uint16) {
		w := 1 + int(ranks)%4
		segLimit := 128 + int64(segBytes)%2048
		lead := make([]byte, 0, 2*w)
		for r := 0; r < w; r++ {
			lead = append(lead, first, first/4)
		}
		steps := [][]byte{lead} // per step: meta, payload, meta, payload, … lengths
		for i := 0; i+2*w <= len(lens) && len(steps) <= 32; i += 2 * w {
			steps = append(steps, lens[i:i+2*w])
		}

		dir := t.TempDir()
		l := mustLog(t, dir, Options{SegmentBytes: segLimit})
		if err := l.SetConfig(Config{WriterSize: w, QueueDepth: 2}); err != nil {
			t.Fatal(err)
		}
		cfgRec := fuzzRecord(recConfig, encodeConfig(Config{WriterSize: w, QueueDepth: 2}))
		var want [][]byte // expected segment files
		put := func(rec func(base int64) []byte) {
			if n := len(want); n > 0 {
				if r := rec(int64(len(want[n-1]))); int64(len(want[n-1])+len(r)) <= segLimit {
					want[n-1] = append(want[n-1], r...)
					return
				}
			}
			want = append(want, append([]byte(nil), cfgRec...))
			want[len(want)-1] = append(want[len(want)-1], rec(int64(len(cfgRec)))...)
		}
		for s, ls := range steps {
			metas, payloads := make([][]byte, w), make([][]byte, w)
			var blobs [][]byte
			for r := 0; r < w; r++ {
				metas[r] = blob(s, r, int(ls[2*r])%24)
				payloads[r] = blob(s+1, r, int(ls[2*r+1]))
				blobs = append(blobs, metas[r], payloads[r])
			}
			if err := l.Append(s, metas, payloads); err != nil {
				t.Fatal(err)
			}
			put(func(base int64) []byte { return fuzzStepV2Record(base, s, blobs...) })
		}
		if err := l.AppendEnd(len(steps) - 1); err != nil {
			t.Fatal(err)
		}
		end := fuzzRecord(recEnd, binary.LittleEndian.AppendUint32(nil, uint32(len(steps))))
		put(func(int64) []byte { return end })
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		seqs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqs) != len(want) {
			t.Fatalf("%d segments, want %d", len(seqs), len(want))
		}
		for i, seq := range seqs {
			got, err := os.ReadFile(segPath(dir, seq))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("segment %d: %d bytes differ from the contiguous layout's %d", seq, len(got), len(want[i]))
			}
		}
	})
}
