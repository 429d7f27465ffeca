package netpkt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func samplePacket(proto uint8) Packet {
	return Packet{
		Timestamp: time.Date(2024, 6, 1, 12, 0, 0, 123456000, time.UTC),
		SrcIP:     [4]byte{10, 0, 0, 1},
		DstIP:     [4]byte{192, 168, 1, 2},
		SrcPort:   40000,
		DstPort:   443,
		Proto:     proto,
		TTL:       64,
		TCPFlags:  FlagSYN | FlagACK,
		Payload:   []byte("hello"),
	}
}

func TestMarshalUnmarshalTCP(t *testing.T) {
	p := samplePacket(ProtoTCP)
	frame := p.Marshal()
	got, err := Unmarshal(frame, p.Timestamp, len(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != p.SrcIP || got.DstIP != p.DstIP {
		t.Errorf("IPs: got %v > %v", got.SrcAddr(), got.DstAddr())
	}
	if got.SrcPort != p.SrcPort || got.DstPort != p.DstPort {
		t.Errorf("ports: %d > %d", got.SrcPort, got.DstPort)
	}
	if got.Proto != ProtoTCP || got.TTL != 64 {
		t.Errorf("proto/ttl: %d/%d", got.Proto, got.TTL)
	}
	if got.TCPFlags != (FlagSYN | FlagACK) {
		t.Errorf("flags = %x", got.TCPFlags)
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Length != len(frame) {
		t.Errorf("Length = %d, want %d", got.Length, len(frame))
	}
}

func TestMarshalUnmarshalUDP(t *testing.T) {
	p := samplePacket(ProtoUDP)
	frame := p.Marshal()
	got, err := Unmarshal(frame, p.Timestamp, len(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != ProtoUDP {
		t.Errorf("proto = %d", got.Proto)
	}
	if got.SrcPort != 40000 || got.DstPort != 443 {
		t.Errorf("ports: %d > %d", got.SrcPort, got.DstPort)
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestMarshalUnmarshalICMP(t *testing.T) {
	p := samplePacket(ProtoICMP)
	frame := p.Marshal()
	got, err := Unmarshal(frame, p.Timestamp, len(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != ProtoICMP {
		t.Errorf("proto = %d", got.Proto)
	}
	if got.SrcPort != 0 || got.DstPort != 0 {
		t.Errorf("ICMP ports should be zero: %d/%d", got.SrcPort, got.DstPort)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}, time.Now(), 3); err == nil {
		t.Error("want error on short frame")
	}
	// Valid length but wrong ethertype.
	pkt := samplePacket(ProtoTCP)
	frame := pkt.Marshal()
	frame[12], frame[13] = 0x86, 0xdd // IPv6
	if _, err := Unmarshal(frame, time.Now(), len(frame)); err == nil {
		t.Error("want error on non-IPv4 ethertype")
	}
	// Truncated TCP header.
	p := samplePacket(ProtoTCP)
	frame = p.Marshal()
	short := frame[:ethHeaderLen+ipv4HeaderLen+4]
	if _, err := Unmarshal(short, time.Now(), len(short)); err == nil {
		t.Error("want error on truncated TCP")
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	p := samplePacket(ProtoTCP)
	frame := p.Marshal()
	ip := frame[ethHeaderLen : ethHeaderLen+ipv4HeaderLen]
	// Recomputing over the header with its checksum field zeroed must
	// reproduce the stored checksum.
	stored := uint16(ip[10])<<8 | uint16(ip[11])
	if got := ipv4Checksum(ip); got != stored {
		t.Errorf("checksum = %04x, want %04x", got, stored)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	pkts := []Packet{samplePacket(ProtoTCP), samplePacket(ProtoUDP)}
	pkts[1].Timestamp = pkts[0].Timestamp.Add(42 * time.Millisecond)
	for i := range pkts {
		if err := w.WritePacket(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.PacketCount != 2 {
		t.Errorf("PacketCount = %d", w.PacketCount)
	}

	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d packets, want 2", len(got))
	}
	if got[0].Proto != ProtoTCP || got[1].Proto != ProtoUDP {
		t.Errorf("protocols = %d, %d", got[0].Proto, got[1].Proto)
	}
	// Microsecond timestamp fidelity.
	if got[0].Timestamp.Sub(pkts[0].Timestamp) > time.Microsecond {
		t.Errorf("timestamp drift: %v vs %v", got[0].Timestamp, pkts[0].Timestamp)
	}
	if d := got[1].Timestamp.Sub(got[0].Timestamp); d != 42*time.Millisecond {
		t.Errorf("inter-packet delta = %v", d)
	}
}

func TestPcapReaderBadMagic(t *testing.T) {
	buf := bytes.NewBuffer(make([]byte, 24))
	if _, err := NewPcapReader(buf); err == nil {
		t.Error("want error on bad magic")
	}
}

func TestPcapReaderShortHeader(t *testing.T) {
	buf := bytes.NewBuffer([]byte{1, 2, 3})
	if _, err := NewPcapReader(buf); err == nil {
		t.Error("want error on short header")
	}
}

func TestPcapNextEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	p := samplePacket(ProtoTCP)
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestPcapOrigLengthPreserved(t *testing.T) {
	// A packet whose Length exceeds the serialised frame (truncated
	// payload) keeps its original length through the file.
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	p := samplePacket(ProtoUDP)
	p.Length = 1500
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Length != 1500 {
		t.Errorf("Length = %d, want 1500", got.Length)
	}
}

func TestPacketString(t *testing.T) {
	p := samplePacket(ProtoTCP)
	if s := p.String(); s == "" {
		t.Error("empty String")
	}
}

func TestReadAllSkipsNonIPv4(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	p := samplePacket(ProtoTCP)
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	raw := buf.Bytes()
	// Append a hand-built ARP record (ethertype 0x0806).
	arp := make([]byte, 16+60)
	// ts=0, caplen=60, origlen=60.
	arp[8] = 60
	arp[12] = 60
	frame := arp[16:]
	frame[12], frame[13] = 0x08, 0x06
	raw = append(raw, arp...)

	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("ReadAll = %d packets, want 1 (ARP skipped)", len(got))
	}
}

func TestNextValidSkipsUnparseable(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	first := samplePacket(ProtoTCP)
	if err := w.WritePacket(&first); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	raw := buf.Bytes()
	// Splice in a hand-built ARP record (ethertype 0x0806): Next would
	// report a parse error, NextValid must skip it.
	arp := make([]byte, 16+60)
	arp[8] = 60  // caplen (little-endian)
	arp[12] = 60 // origlen
	arp[16+12], arp[16+13] = 0x08, 0x06
	raw = append(raw, arp...)
	// Then a second valid packet after the junk frame.
	var tail bytes.Buffer
	w2 := NewPcapWriter(&tail)
	second := samplePacket(ProtoUDP)
	if err := w2.WritePacket(&second); err != nil {
		t.Fatal(err)
	}
	w2.Flush()
	raw = append(raw, tail.Bytes()[24:]...) // strip the file header

	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got1, err := r.NextValid()
	if err != nil {
		t.Fatal(err)
	}
	if got1.Proto != ProtoTCP {
		t.Errorf("first proto = %d, want TCP", got1.Proto)
	}
	got2, err := r.NextValid()
	if err != nil {
		t.Fatal(err)
	}
	if got2.Proto != ProtoUDP {
		t.Errorf("second proto = %d, want UDP", got2.Proto)
	}
	if _, err := r.NextValid(); err != io.EOF {
		t.Errorf("at end: err = %v, want io.EOF", err)
	}
}

func TestNextValidPropagatesIOErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	p := samplePacket(ProtoTCP)
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	// Truncate mid-record: the reader hits an unexpected EOF, which is
	// an I/O error NextValid must surface rather than swallow.
	raw := buf.Bytes()[:buf.Len()-4]
	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextValid(); err == nil || err == io.EOF {
		t.Errorf("truncated stream: err = %v, want I/O error", err)
	}
}

// TestNextValidBatchAllocs pins the decode path's heap allocations.
// A batch of header-only frames allocates nothing: each record is
// parsed in place in the reader's buffer straight into its batch slot,
// and an empty payload is nil, so there is nothing to copy out. A
// frame with payload bytes costs at most the one copy of its payload.
func TestNextValidBatchAllocs(t *testing.T) {
	const batch, runs = 16, 50
	for _, tc := range []struct {
		name    string
		payload []byte
		max     float64 // allocations per batch
	}{
		{"header-only", nil, 0},
		{"payload-5B", []byte("hello"), batch},
	} {
		var buf bytes.Buffer
		w := NewPcapWriter(&buf)
		for i := 0; i < batch*(runs+1); i++ {
			p := samplePacket(ProtoUDP)
			p.Payload = tc.payload
			p.SrcPort = uint16(1000 + i)
			if err := w.WritePacket(&p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewPcapReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		pkts := make([]Packet, batch)
		allocs := testing.AllocsPerRun(runs, func() {
			if n, err := r.NextValidBatch(pkts); n != batch || err != nil {
				t.Fatalf("%s: NextValidBatch = %d, %v; want %d, nil", tc.name, n, err, batch)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: NextValidBatch allocs per batch = %v, want <= %v", tc.name, allocs, tc.max)
		}
		if tc.payload == nil && pkts[0].Payload != nil {
			t.Errorf("%s: Payload = %v, want nil", tc.name, pkts[0].Payload)
		}
		if tc.payload != nil && !bytes.Equal(pkts[0].Payload, tc.payload) {
			t.Errorf("%s: Payload = %q, want %q", tc.name, pkts[0].Payload, tc.payload)
		}
	}
}

// fourRecordCapture writes four UDP packets with source ports 1..4.
func fourRecordCapture(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	for i := 1; i <= 4; i++ {
		p := samplePacket(ProtoUDP)
		p.SrcPort = uint16(i)
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorruptCapLenIsStreamError pins that a record whose capture
// length exceeds the snaplen ends the stream with an error, as in
// libpcap. Its frame bytes cannot be skipped — the length that would
// say how many there are is the corrupt field — so reading on would
// take frame data for the next record header.
func TestCorruptCapLenIsStreamError(t *testing.T) {
	raw := fourRecordCapture(t)
	rec2 := 24 + (len(raw)-24)/4 // records are equal-sized
	binary.LittleEndian.PutUint32(raw[rec2+8:rec2+12], 70000)
	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err == nil || !strings.Contains(err.Error(), "exceeds snaplen") {
		t.Fatalf("ReadAll err = %v, want a snaplen stream error", err)
	}
	if len(got) != 1 || got[0].SrcPort != 1 {
		t.Errorf("ReadAll = %d packets, want only record 1", len(got))
	}
}

// withSnapLen returns a copy of a little-endian capture whose file
// header declares snaplen.
func withSnapLen(raw []byte, snaplen uint32) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[16:20], snaplen)
	return out
}

// TestOversizeRecordWithinSnapLenIsSkipped pins that a record longer
// than 65535 captured bytes but within the file header's snaplen (as
// tcpdump's default 262144 allows) is skipped whole, and the stream
// goes on at the next record. A capture length above the file's
// snaplen, or above 262144 whatever the header says, still ends the
// stream.
func TestOversizeRecordWithinSnapLenIsSkipped(t *testing.T) {
	raw := fourRecordCapture(t)
	recLen := (len(raw) - 24) / 4
	big := make([]byte, 70000)
	big[12], big[13] = 0x08, 0x00
	big[14] = 0x45
	var data []byte
	data = append(data, raw[:24+recLen]...)
	data = appendRecord(data, binary.LittleEndian, 1, 2, uint32(len(big)), big)
	data = append(data, raw[24+recLen:]...)
	for _, tc := range []struct {
		snaplen uint32
		want    int
		stream  bool
	}{
		{pcapMaxSnapLen, 4, false},
		{1 << 31, 4, false},
		{69999, 1, true},
		{pcapSnapLen, 1, true},
	} {
		r, err := NewPcapReader(bytes.NewReader(withSnapLen(data, tc.snaplen)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		if stream := err != nil && strings.Contains(err.Error(), "exceeds snaplen"); stream != tc.stream || (!tc.stream && err != nil) {
			t.Errorf("snaplen %d: ReadAll err = %v, want stream error %v", tc.snaplen, err, tc.stream)
		}
		if len(got) != tc.want || got[0].SrcPort != 1 || got[len(got)-1].SrcPort != uint16(tc.want) {
			t.Errorf("snaplen %d: ReadAll = %d packets, want %d", tc.snaplen, len(got), tc.want)
		}
	}
	// Whatever the header says, a capture length above 262144 ends
	// the stream, and an oversize record cut short is a truncation.
	huge := withSnapLen(raw, 1<<31)
	binary.LittleEndian.PutUint32(huge[24+recLen+8:], pcapMaxSnapLen+1)
	if got, err := mustOpen(t, huge).ReadAll(); len(got) != 1 || err == nil || !strings.Contains(err.Error(), "exceeds snaplen") {
		t.Errorf("capture length above 262144: ReadAll = %d packets, %v; want 1 and a snaplen error", len(got), err)
	}
	cut := withSnapLen(data[:24+recLen+16+1000], pcapMaxSnapLen)
	if got, err := mustOpen(t, cut).ReadAll(); len(got) != 1 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("oversize record cut short: ReadAll = %d packets, %v; want 1 and a truncated record", len(got), err)
	}
}

// TestRecordHeaderThenEOFIsTruncation pins that a capture cut inside a
// record header or right after one is a truncated record, exactly like
// a capture cut inside the frame — not a clean end of stream.
func TestRecordHeaderThenEOFIsTruncation(t *testing.T) {
	raw := fourRecordCapture(t)
	recLen := (len(raw) - 24) / 4
	for name, cut := range map[string]int{
		"inside header": 24 + 3*recLen + 5,
		"after header":  24 + 3*recLen + 16,
		"inside frame":  24 + 3*recLen + 20,
	} {
		r, err := NewPcapReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: ReadAll err = %v, want a truncated record", name, err)
		}
		if len(got) != 3 {
			t.Errorf("%s: ReadAll = %d packets, want 3", name, len(got))
		}
	}
}

// failingReader serves data, then fails every read with err.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(b []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(b, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestFrameReadIOErrorPropagates pins that an I/O error while a
// record's frame is being read ends the stream with that error instead
// of being skipped as an unparseable frame.
func TestFrameReadIOErrorPropagates(t *testing.T) {
	raw := fourRecordCapture(t)
	recLen := (len(raw) - 24) / 4
	boom := errors.New("disk on fire")
	r, err := NewPcapReader(&failingReader{data: raw[:24+recLen+20], err: boom})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if !errors.Is(err, boom) {
		t.Errorf("ReadAll err = %v, want the reader's error", err)
	}
	if len(got) != 1 {
		t.Errorf("ReadAll = %d packets, want 1", len(got))
	}
}
