package fed

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzFrameDecode hardens the wire codec: arbitrary bytes must never
// panic or over-consume, and every accepted frame must re-encode to
// the exact bytes it was decoded from (encode∘decode identity — the
// codec has no don't-care bits, so a frame the hub accepts is a frame
// the hub could itself have sent).
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		fr := fr
		enc, err := AppendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// Truncations and bit flips of valid frames steer the fuzzer
		// toward the interesting boundaries.
		f.Add(enc[:len(enc)-1])
		f.Add(mutate(enc, 4, 0xff))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, MaxFrameLen))
	f.Add([]byte{0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("rejected input reported %d consumed bytes", n)
			}
			return
		}
		if n < 4+headerLen || n > len(data) || n > MaxFrameLen {
			t.Fatalf("consumed %d bytes of %d (max %d)", n, len(data), MaxFrameLen)
		}
		re, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("encode∘decode not identity:\n in  %x\n out %x", data[:n], re)
		}
		// The stream face must agree with the slice face.
		var viaStream Frame
		if err := ReadFrame(bufio.NewReader(bytes.NewReader(data)), &viaStream); err != nil {
			t.Fatalf("ReadFrame rejected what DecodeFrame accepted: %v", err)
		}
		if viaStream != fr {
			t.Fatalf("stream decode disagrees: %+v vs %+v", viaStream, fr)
		}
	})
}
