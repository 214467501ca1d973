package flexpath

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
)

// encodeFrame captures writeFrame's wire bytes for seeding and for the
// canonical re-encode comparison below.
func encodeFrame(t testing.TB, op byte, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, op, body); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return buf.Bytes()
}

// FuzzFrameDecode hammers the length/CRC/opcode framing layer that every
// remote backend (TCP and UDS alike) trusts: arbitrary bytes must never
// panic the decoder, anything it accepts must re-encode to the identical
// wire bytes (the encoding is canonical — there is exactly one valid
// wire form per frame), and the scratch-reuse path must agree with the
// fresh-storage path.
func FuzzFrameDecode(f *testing.F) {
	// Well-formed frames, including multi-part writeFrameVec ones (the
	// gathered publish/fetch path) to prove gathering does not change
	// the wire format.
	fw := &frameWriter{}
	fw.str("dump.fp")
	fw.u32(4)
	fw.u32(0)
	f.Add(encodeFrame(f, opAttachWriter, fw.buf))
	f.Add(encodeFrame(f, opHeartbeat, binary.LittleEndian.AppendUint32(nil, 5000)))
	f.Add(encodeFrame(f, opCloseWriter, nil))
	// A publish request and a fetch answer of each payload kind, laid
	// out as RemoteWriter.PublishBlock and serveReader lay them out.
	var vecs net.Buffers
	for _, bySlot := range []bool{false, true} {
		pub := &frameWriter{}
		pub.u32(7) // step
		pub.u32(3) // meta length
		ans := &frameWriter{}
		ans.u8(stOK)
		inline := []byte("wxyz")
		if bySlot {
			ref := slotRef{slot: 2, gen: 9, n: 4}
			pub.slotRef(ref)
			ans.slotRef(ref)
			inline = nil
		} else {
			pub.inlineHead(len(inline))
			ans.inlineHead(len(inline))
		}
		var req, resp bytes.Buffer
		if err := writeFrameVec(&req, &vecs, opPublish, pub.buf[:8], []byte("abc"), pub.buf[8:], inline); err != nil {
			f.Fatal(err)
		}
		if err := writeFrameVec(&resp, &vecs, 0, ans.buf, inline); err != nil {
			f.Fatal(err)
		}
		f.Add(req.Bytes())
		f.Add(resp.Bytes())
	}
	// Mutations a flaky wire could produce.
	good := encodeFrame(f, opStepMeta, []byte("body"))
	flipped := append([]byte(nil), good...)
	flipped[5] ^= 0x40 // CRC bit flip
	f.Add(flipped)
	f.Add(good[:len(good)-2])                            // truncated body
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))      // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}) // length > maxFrame

	f.Fuzz(func(t *testing.T, data []byte) {
		// A forged length prefix up to maxFrame is legal input, but a
		// fuzz worker allocating 1 GiB per exec is not useful work —
		// the validation boundary itself is covered by the seeds.
		if len(data) >= 4 {
			if n := binary.LittleEndian.Uint32(data[:4]); n > 1<<20 && n <= maxFrame {
				t.Skip("declared length too large for fuzz throughput")
			}
		}
		op, body, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := 9 + len(body); got > len(data) {
			t.Fatalf("decoded %d-byte frame from %d bytes of input", got, len(data))
		}
		// Canonical round trip: re-encoding must reproduce the frame
		// bit-for-bit (same length prefix, same CRC, same layout).
		if re := encodeFrame(t, op, body); !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:len(re)])
		}
		// The pooled-scratch decode used on hot paths must agree with
		// the fresh-storage decode, including when the scratch already
		// holds stale bytes from a previous (larger) frame.
		scratch := bytes.Repeat([]byte{0xee}, len(data)+16)
		op2, body2, err2 := readFrameInto(bytes.NewReader(data), func(_ byte, n int) []byte { return grow(&scratch, n) })
		if err2 != nil || op2 != op || !bytes.Equal(body2, body) {
			t.Fatalf("readFrameInto disagrees: op=%d err=%v body=%x, want op=%d body=%x",
				op2, err2, body2, op, body)
		}
	})
}
