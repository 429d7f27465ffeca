package fed

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
	"time"

	"iguard/internal/features"
)

func testKey(n byte) features.FlowKey {
	return features.FlowKey{
		SrcIP: [4]byte{10, 0, 0, n}, DstIP: [4]byte{192, 168, 1, 1},
		SrcPort: 4000 + uint16(n), DstPort: 443, Proto: 6,
	}
}

// sampleFrames covers every type with non-trivial payloads.
func sampleFrames() []Frame {
	return []Frame{
		{Type: THello, Seq: 1, HelloVersion: Version, Node: 0xdeadbeefcafe},
		{Type: TAnnounce, Seq: 2, Key: testKey(7)},
		{Type: TInstall, Seq: 3, Key: testKey(9).Canonical()},
		{Type: TRemove, Seq: 4, Key: testKey(11)},
		{Type: TFlush, Seq: 5},
		{Type: TStats, Seq: 6, Stats: StatsPayload{
			Packets: 1 << 40, Installed: 17, Evicted: 3,
			BlacklistLen: 14, QueueDrops: 5, OutboxDrops: 1,
		}},
		{Type: TKeepalive, Seq: 7},
	}
}

// TestFrameRoundTrip pins encode∘decode identity for every frame type,
// both via the byte-slice codec and the io stream faces.
func TestFrameRoundTrip(t *testing.T) {
	for _, want := range sampleFrames() {
		enc, err := AppendFrame(nil, &want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Type, err)
		}
		if len(enc) > MaxFrameLen {
			t.Fatalf("%v: encoded to %d bytes, exceeds MaxFrameLen=%d", want.Type, len(enc), MaxFrameLen)
		}
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Type, err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d bytes", want.Type, n, len(enc))
		}
		if got != want {
			t.Fatalf("%v: round trip changed frame:\n got %+v\nwant %+v", want.Type, got, want)
		}

		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := WriteFrame(bw, &want); err != nil {
			t.Fatalf("%v: WriteFrame: %v", want.Type, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), enc) {
			t.Fatalf("%v: WriteFrame wrote %x, AppendFrame %x", want.Type, buf.Bytes(), enc)
		}
		var rt Frame
		if err := ReadFrame(bufio.NewReader(&buf), &rt); err != nil {
			t.Fatalf("%v: ReadFrame: %v", want.Type, err)
		}
		if rt != want {
			t.Fatalf("%v: stream round trip changed frame", want.Type)
		}
	}
}

// TestFrameStreamConcatenation checks that back-to-back frames decode
// one at a time with correct consumption offsets.
func TestFrameStreamConcatenation(t *testing.T) {
	frames := sampleFrames()
	var stream []byte
	var err error
	for i := range frames {
		stream, err = AppendFrame(stream, &frames[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; len(stream) > 0; i++ {
		got, n, err := DecodeFrame(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != frames[i] {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, got, frames[i])
		}
		stream = stream[n:]
	}
}

// TestFrameBufferedStream pins the connection faces on a stream long
// enough to wrap the 4 KiB connection buffers many times: WriteFrame
// through a connBufSize writer emits exactly the AppendFrame bytes
// (flushing early when a frame would not fit), and ReadFrame decodes
// them back in order whether the bytes arrive whole or one at a time.
func TestFrameBufferedStream(t *testing.T) {
	var frames []Frame
	for i := 0; i < 100; i++ {
		for _, f := range sampleFrames() {
			f.Seq = uint64(len(frames) + 1)
			frames = append(frames, f)
		}
	}
	var want []byte
	var wire bytes.Buffer
	bw := bufio.NewWriterSize(&wire, connBufSize)
	for i := range frames {
		var err error
		if want, err = AppendFrame(want, &frames[i]); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(bw, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), want) {
		t.Fatalf("buffered writes differ from the AppendFrame concatenation (%d vs %d bytes)", wire.Len(), len(want))
	}
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(want),
		"one-byte": iotest.OneByteReader(bytes.NewReader(want)),
	} {
		br := bufio.NewReaderSize(r, connBufSize)
		var got Frame
		for i := range frames {
			if err := ReadFrame(br, &got); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got != frames[i] {
				t.Fatalf("%s: frame %d: got %+v want %+v", name, i, got, frames[i])
			}
		}
		if err := ReadFrame(br, &got); err != io.EOF {
			t.Fatalf("%s: after the last frame: err=%v want io.EOF", name, err)
		}
	}
}

// TestFrameDecodeRejections pins the error classes: truncation is
// retryable, everything else is a permanent protocol violation.
func TestFrameDecodeRejections(t *testing.T) {
	valid, err := AppendFrame(nil, &Frame{Type: TInstall, Seq: 9, Key: testKey(1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short length prefix", valid[:3], ErrTruncated},
		{"truncated body", valid[:len(valid)-1], ErrTruncated},
		{"oversize length", []byte{0xff, 0xff, 0xff, 0xff}, ErrOversize},
		{"undersize length", []byte{0, 0, 0, 1, 1}, ErrBadLength},
		{"unknown type", mutate(valid, 4, 0x7f), ErrUnknownType},
		{"zero type", mutate(valid, 4, 0), ErrUnknownType},
		{"length/type mismatch", mutate(valid, 4, byte(TFlush)), ErrBadLength},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: err=%v want %v", tc.name, err, tc.want)
		}
	}

	// A hello with corrupt magic is rejected even though the frame is
	// structurally sound.
	hello, err := AppendFrame(nil, &Frame{Type: THello, Seq: 1, HelloVersion: Version, Node: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFrame(mutate(hello, 13, 'X')); !errors.Is(err, ErrBadMagic) {
		t.Errorf("corrupt magic: err=%v want ErrBadMagic", err)
	}

	// Encoding an unknown (or zero) type is refused symmetrically.
	if _, err := AppendFrame(nil, &Frame{}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("encode zero frame: err=%v want ErrUnknownType", err)
	}

	// A stream that dies mid-frame (in the body or in the length
	// prefix) surfaces as ErrUnexpectedEOF; between frames, as io.EOF.
	var f Frame
	for _, cut := range []int{len(valid) - 2, 2} {
		if err := ReadFrame(bufio.NewReader(bytes.NewReader(valid[:cut])), &f); err != io.ErrUnexpectedEOF {
			t.Errorf("EOF after %d bytes: err=%v want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if err := ReadFrame(bufio.NewReader(bytes.NewReader(nil)), &f); err != io.EOF {
		t.Errorf("clean EOF: err=%v want io.EOF", err)
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

// TestFlowKeyBytesRoundTrip pins the key codec the frame payloads use.
func TestFlowKeyBytesRoundTrip(t *testing.T) {
	k := testKey(42)
	if got := features.FlowKeyFromBytes(k.Bytes()); got != k {
		t.Fatalf("round trip changed key: got %v want %v", got, k)
	}
}

// TestFakeClock pins the fake clock's firing rules: timers fire in
// deadline order once Advance crosses them, never before.
func TestFakeClock(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewFakeClock(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now=%v want %v", c.Now(), start)
	}
	late := c.After(2 * time.Second)
	early := c.After(time.Second)
	if n := c.Timers(); n != 2 {
		t.Fatalf("Timers=%d want 2", n)
	}
	select {
	case <-early:
		t.Fatal("timer fired before Advance")
	default:
	}
	c.Advance(time.Second)
	select {
	case <-early:
	default:
		t.Fatal("1s timer did not fire at +1s")
	}
	select {
	case <-late:
		t.Fatal("2s timer fired at +1s")
	default:
	}
	c.Advance(time.Second)
	select {
	case <-late:
	default:
		t.Fatal("2s timer did not fire at +2s")
	}
	if n := c.Timers(); n != 0 {
		t.Fatalf("Timers=%d want 0 after firing", n)
	}
}
