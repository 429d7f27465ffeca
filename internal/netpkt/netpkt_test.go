package netpkt

import (
	"bytes"
	"io"
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

// TestNextValidBatchAllocs pins the decode path at one heap allocation
// per packet: the frame buffer the returned Payload aliases. The record
// header is read into reader-owned scratch, not a per-call array.
func TestNextValidBatchAllocs(t *testing.T) {
	const batch, runs = 16, 50
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	for i := 0; i < batch*(runs+1); i++ {
		p := samplePacket(ProtoUDP)
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
			t.Fatalf("NextValidBatch = %d, %v; want %d, nil", n, err, batch)
		}
	})
	if perPkt := allocs / batch; perPkt > 1 {
		t.Errorf("NextValidBatch allocs per packet = %v, want <= 1", perPkt)
	}
}
