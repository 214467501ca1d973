package streamlog

import (
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

// FuzzReplayIter drives the replay step-iterator over arbitrary (often
// corrupted or truncated) log directories opened read-only, split into
// up to two segment files to also exercise the cross-segment walk. The
// iterator must never panic and never serve a torn step: every step it
// yields decoded cleanly from a CRC-valid record, and iteration always
// terminates with io.EOF, ErrTruncated, or a descriptive error. The
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
		it := l.Iter()
		served := 0
		budget := l.NextStep() - l.FirstStep() + 1
		for {
			if served > budget {
				t.Fatalf("iterator served %d steps, more than the %d indexed", served, budget)
			}
			step, metas, payloads, release, err := it.Next()
			if err != nil {
				break // io.EOF, ErrTruncated, or corruption detected — all clean
			}
			if len(metas) == 0 || len(metas) != len(payloads) {
				t.Fatalf("step %d served with %d/%d blobs", step, len(metas), len(payloads))
			}
			// Cross-check against the copying read path: a view must never
			// disagree with a pread of the same record.
			cm, cp, rerr := l.ReadStep(step)
			if rerr != nil {
				t.Fatalf("step %d served by iterator but unreadable via ReadStep: %v", step, rerr)
			}
			for i := range cm {
				if string(cm[i]) != string(metas[i]) || string(cp[i]) != string(payloads[i]) {
					t.Fatalf("step %d rank %d: view and pread disagree", step, i)
				}
			}
			release()
			release() // releases are idempotent
			served++
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
