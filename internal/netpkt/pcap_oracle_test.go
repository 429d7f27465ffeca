package netpkt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// This file keeps the copy-per-record pcap reader that the in-place
// reader replaced, verbatim apart from its names and doc comments, as
// the reference for TestPcapReaderMatchesOracle and
// FuzzPcapReaderOracle. It reads each record through io.ReadFull into
// a fresh frame buffer and parses it with its own copy of the old
// Unmarshal, so Payload aliases that buffer. Its two known stream bugs are kept too: a capture length
// above the snaplen, and a record-level read failure other than a
// mid-frame EOF, are skipped as if they were unparseable frames.

type oraclePcapReader struct {
	r          *bufio.Reader
	order      binary.ByteOrder
	rec        [16]byte
	Nanosecond bool
}

func newOraclePcapReader(r io.Reader) (*oraclePcapReader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("netpkt: pcap header: %w", err)
	}
	pr := &oraclePcapReader{r: br}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	switch magic {
	case pcapMagicLE:
		pr.order = binary.LittleEndian
	case 0xa1b23c4d:
		pr.order = binary.LittleEndian
		pr.Nanosecond = true
	case pcapMagicBE:
		pr.order = binary.BigEndian
	case 0x4d3cb2a1:
		pr.order = binary.BigEndian
		pr.Nanosecond = true
	default:
		return nil, fmt.Errorf("netpkt: bad pcap magic 0x%08x", magic)
	}
	linkType := pr.order.Uint32(hdr[20:24])
	if linkType != pcapLinkTypeEth {
		return nil, fmt.Errorf("netpkt: unsupported link type %d", linkType)
	}
	return pr, nil
}

func (pr *oraclePcapReader) Next() (Packet, error) {
	rec := pr.rec[:]
	if _, err := io.ReadFull(pr.r, rec); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Packet{}, io.EOF
		}
		return Packet{}, err
	}
	sec := pr.order.Uint32(rec[0:4])
	frac := pr.order.Uint32(rec[4:8])
	capLen := pr.order.Uint32(rec[8:12])
	origLen := pr.order.Uint32(rec[12:16])
	if capLen > pcapSnapLen {
		return Packet{}, fmt.Errorf("netpkt: capture length %d exceeds snaplen", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Packet{}, fmt.Errorf("netpkt: truncated record: %w", err)
	}
	nanos := int64(frac) * 1000
	if pr.Nanosecond {
		nanos = int64(frac)
	}
	ts := time.Unix(int64(sec), nanos).UTC()
	return unmarshalOracle(data, ts, int(origLen))
}

func (pr *oraclePcapReader) NextValid() (Packet, error) {
	for {
		p, err := pr.Next()
		if err == nil {
			return p, nil
		}
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		if isParseErrOracle(err) {
			continue
		}
		return Packet{}, err
	}
}

func isParseErrOracle(err error) bool {
	msg := err.Error()
	return len(msg) >= 7 && msg[:7] == "netpkt:" &&
		msg != "netpkt: truncated record: unexpected EOF"
}

func unmarshalOracle(data []byte, ts time.Time, wireLen int) (Packet, error) {
	var p Packet
	if len(data) < ethHeaderLen+ipv4HeaderLen {
		return p, fmt.Errorf("netpkt: frame too short: %d bytes", len(data))
	}
	etherType := binary.BigEndian.Uint16(data[12:14])
	if etherType != 0x0800 {
		return p, fmt.Errorf("netpkt: unsupported ethertype 0x%04x", etherType)
	}
	ip := data[ethHeaderLen:]
	if ip[0]>>4 != 4 {
		return p, fmt.Errorf("netpkt: not IPv4 (version %d)", ip[0]>>4)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(ip) < ihl {
		return p, fmt.Errorf("netpkt: bad IHL %d", ihl)
	}
	p.Timestamp = ts
	p.TTL = ip[8]
	p.Proto = ip[9]
	copy(p.SrcIP[:], ip[12:16])
	copy(p.DstIP[:], ip[16:20])
	p.Length = wireLen
	if p.Length == 0 {
		p.Length = len(data)
	}

	l4 := ip[ihl:]
	switch p.Proto {
	case ProtoTCP:
		if len(l4) < tcpHeaderLen {
			return p, fmt.Errorf("netpkt: truncated TCP header")
		}
		p.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.DstPort = binary.BigEndian.Uint16(l4[2:4])
		p.TCPFlags = l4[13]
		off := int(l4[12]>>4) * 4
		if off >= tcpHeaderLen && len(l4) >= off {
			p.Payload = l4[off:]
		}
	case ProtoUDP:
		if len(l4) < udpHeaderLen {
			return p, fmt.Errorf("netpkt: truncated UDP header")
		}
		p.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.DstPort = binary.BigEndian.Uint16(l4[2:4])
		p.Payload = l4[udpHeaderLen:]
	default:
		p.Payload = l4
	}
	return p, nil
}

// captureHeader returns a pcap file header in the given byte order,
// with microsecond or nanosecond timestamps.
func captureHeader(order binary.ByteOrder, nanos bool) []byte {
	hdr := make([]byte, 24)
	magic := uint32(pcapMagicLE)
	if nanos {
		magic = 0xa1b23c4d
	}
	order.PutUint32(hdr[0:4], magic)
	order.PutUint16(hdr[4:6], pcapVersionMaj)
	order.PutUint16(hdr[6:8], pcapVersionMin)
	order.PutUint32(hdr[16:20], pcapSnapLen)
	order.PutUint32(hdr[20:24], pcapLinkTypeEth)
	return hdr
}

// appendRecord appends one pcap record holding frame.
func appendRecord(b []byte, order binary.ByteOrder, sec, frac, origLen uint32, frame []byte) []byte {
	var rec [16]byte
	order.PutUint32(rec[0:4], sec)
	order.PutUint32(rec[4:8], frac)
	order.PutUint32(rec[8:12], uint32(len(frame)))
	order.PutUint32(rec[12:16], origLen)
	return append(append(b, rec[:]...), frame...)
}

// payloadLen draws a payload size: mostly none or a few bytes, and
// sometimes enough to push the frame past 4096 B, past a payload chunk,
// or up to the snaplen.
func payloadLen(rng *rand.Rand, room int) int {
	switch rng.Intn(8) {
	case 0, 1, 2:
		return 0
	case 3, 4, 5:
		return 1 + rng.Intn(64)
	case 6:
		return min(room, 4000+rng.Intn(14000))
	default:
		return room - rng.Intn(3)*rng.Intn(20000)
	}
}

// randomFrame builds one Ethernet frame: mostly parseable IPv4 TCP, UDP
// and ICMP with IHL 5–15 and optional payload, and sometimes a frame
// the parser must reject (non-IPv4 ethertype, IP version, bad IHL,
// truncated L4 header, too short) or a TCP data offset it must ignore.
func randomFrame(rng *rand.Rand) []byte {
	const maxFrame = pcapSnapLen
	if rng.Intn(10) == 0 {
		// Garbage of every short size, including the empty frame.
		f := make([]byte, rng.Intn(ethHeaderLen+ipv4HeaderLen+tcpHeaderLen))
		rng.Read(f)
		if len(f) >= 14 && rng.Intn(2) == 0 {
			f[12], f[13] = 0x08, 0x00
		}
		return f
	}
	ihl := 5
	if rng.Intn(3) == 0 {
		ihl += 1 + rng.Intn(10)
	}
	proto := []uint8{ProtoTCP, ProtoUDP, ProtoICMP, 47}[rng.Intn(4)]
	l4Len := 0
	switch proto {
	case ProtoTCP:
		l4Len = tcpHeaderLen
		if rng.Intn(4) == 0 {
			l4Len += 4 * rng.Intn(11) // TCP options
		}
	case ProtoUDP:
		l4Len = udpHeaderLen
	}
	hdrs := ethHeaderLen + 4*ihl + l4Len
	f := make([]byte, hdrs+payloadLen(rng, maxFrame-hdrs))
	rng.Read(f)
	f[12], f[13] = 0x08, 0x00
	ip := f[ethHeaderLen:]
	ip[0] = 0x40 | byte(ihl)
	ip[9] = proto
	l4 := ip[4*ihl:]
	if proto == ProtoTCP {
		l4[12] = byte(l4Len/4) << 4
		if rng.Intn(8) == 0 {
			l4[12] = byte(rng.Intn(16)) << 4 // offset below 5 or past the frame
		}
	}
	switch rng.Intn(16) {
	case 0:
		f[12], f[13] = 0x86, 0xdd // IPv6
	case 1:
		f[12], f[13] = 0x08, 0x06 // ARP
	case 2:
		ip[0] = 0x60 | byte(ihl) // version 6 behind an IPv4 ethertype
	case 3:
		ip[0] = 0x40 | byte(rng.Intn(5)) // IHL below 5
	case 4:
		if l4Len > 0 {
			f = f[:ethHeaderLen+4*ihl+rng.Intn(l4Len)] // truncated L4 header
		}
	}
	return f
}

// randomCapture builds a capture of n records in the given byte order
// and timestamp resolution. Its first record is a TCP packet with a
// payload, so every capture exercises the payload lifetime. Wire
// lengths are the frame length, larger, or zero ("use the frame's").
func randomCapture(rng *rand.Rand, n int, order binary.ByteOrder, nanos bool) []byte {
	b := captureHeader(order, nanos)
	first := samplePacket(ProtoTCP)
	b = appendRecord(b, order, 1717243200, 123456, 0, first.Marshal())
	sec := uint32(1717243200)
	for i := 1; i < n; i++ {
		sec += uint32(rng.Intn(2))
		frac := uint32(rng.Intn(1000000))
		if nanos {
			frac = uint32(rng.Intn(1000000000))
		}
		f := randomFrame(rng)
		orig := uint32(len(f))
		switch rng.Intn(4) {
		case 0:
			orig = 0
		case 1:
			orig += uint32(rng.Intn(1500))
		}
		b = appendRecord(b, order, sec, frac, orig, f)
	}
	return b
}

// readResult is what a reader's NextValid loop delivered: the packets
// and the error that ended it.
type readResult struct {
	pkts []Packet
	err  error
}

// drain calls nextValid until it fails.
func drain(nextValid func() (Packet, error)) readResult {
	var res readResult
	for {
		p, err := nextValid()
		if err != nil {
			res.err = err
			return res
		}
		res.pkts = append(res.pkts, p)
	}
}

// samePacket compares every field, Payload by its bytes: the oracle's
// empty payloads are empty slices of its frame buffer, the reader's are
// nil.
func samePacket(a, b *Packet) bool {
	return a.Timestamp == b.Timestamp && a.SrcIP == b.SrcIP && a.DstIP == b.DstIP &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort && a.Proto == b.Proto &&
		a.TTL == b.TTL && a.TCPFlags == b.TCPFlags && a.Length == b.Length &&
		bytes.Equal(a.Payload, b.Payload)
}

// oversizeRecord finds the first record the reader skips for its size
// alone: longer than 65535 captured bytes but within the file's
// snaplen. It returns the record's offset and where it ends (past
// len(data) if it is cut short). It stops at a record the reader
// cannot step over.
func oversizeRecord(r *PcapReader, data []byte) (off, end int, ok bool) {
	for off = 24; off+pcapRecHeaderLen <= len(data); off = end {
		capLen := r.order.Uint32(data[off+8 : off+12])
		if capLen > r.snapLen {
			return 0, 0, false
		}
		end = off + pcapRecHeaderLen + int(capLen)
		if capLen > pcapSnapLen {
			return off, end, true
		}
	}
	return 0, 0, false
}

// mustOpen opens a PcapReader over data.
func mustOpen(t testing.TB, data []byte) *PcapReader {
	t.Helper()
	r, err := NewPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkAgainstOracle reads data with both readers and fails unless the
// new reader delivers what the oracle does. On malformed input the only
// allowed differences are the stream-error fixes: a capture length
// above the snaplen ends the stream (the oracle skips it and reads on
// out of frame data, so the reader's packets are a prefix of the
// oracle's), and a capture that ends inside a record header, or right
// after one, is a truncated record (the oracle reports a clean end). A record longer than
// 65535 captured bytes but within the file's snaplen, which the oracle
// cannot read past, is checked by removing it (see oversizeRecord).
func checkAgainstOracle(t testing.TB, data []byte) {
	t.Helper()
	r, gerr := NewPcapReader(bytes.NewReader(data))
	ref, werr := newOraclePcapReader(bytes.NewReader(data))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("file header: reader err %v, oracle err %v", gerr, werr)
	}
	if gerr != nil {
		return
	}
	if off, end, ok := oversizeRecord(r, data); ok {
		// The oracle cannot skip this record, so compare the reader
		// with itself on the capture without it (or cut before it, if
		// it runs past the end), and that capture with the oracle.
		rest := append(append([]byte(nil), data[:off]...), data[min(end, len(data)):]...)
		got, alone := drain(mustOpen(t, data).NextValid), drain(mustOpen(t, rest).NextValid)
		if end > len(data) {
			if !errors.Is(got.err, io.ErrUnexpectedEOF) {
				t.Fatalf("oversize record cut short: reader ended with %v", got.err)
			}
			alone.err = got.err
		}
		if len(got.pkts) != len(alone.pkts) || fmt.Sprint(got.err) != fmt.Sprint(alone.err) {
			t.Fatalf("oversize record: reader %d packets (%v), %d (%v) without it", len(got.pkts), got.err, len(alone.pkts), alone.err)
		}
		for i := range got.pkts {
			if !samePacket(&got.pkts[i], &alone.pkts[i]) {
				t.Fatalf("oversize record: packet %d:\nreader  %+v\nwithout %+v", i, got.pkts[i], alone.pkts[i])
			}
		}
		checkAgainstOracle(t, rest)
		return
	}
	got, want := drain(r.NextValid), drain(ref.NextValid)
	// Every payload is checked only now, after both streams were read
	// whole: the reader's payloads must outlive its buffer refills.
	snaplen := got.err != io.EOF && strings.Contains(got.err.Error(), "exceeds snaplen")
	if snaplen {
		if len(got.pkts) > len(want.pkts) {
			t.Fatalf("snaplen stop: reader %d packets, oracle only %d", len(got.pkts), len(want.pkts))
		}
		want.pkts = want.pkts[:len(got.pkts)]
	}
	if len(got.pkts) != len(want.pkts) {
		t.Fatalf("reader %d packets (%v), oracle %d (%v)", len(got.pkts), got.err, len(want.pkts), want.err)
	}
	for i := range got.pkts {
		if !samePacket(&got.pkts[i], &want.pkts[i]) {
			t.Fatalf("packet %d:\nreader %+v\noracle %+v", i, got.pkts[i], want.pkts[i])
		}
	}
	switch {
	case snaplen:
	case got.err == io.EOF:
		if want.err != io.EOF {
			t.Fatalf("reader ended cleanly, oracle with %v", want.err)
		}
	case errors.Is(got.err, io.ErrUnexpectedEOF):
		// A truncated record: the oracle reports it too when the cut is
		// inside the frame, and a clean end when the cut is inside the
		// record header or right after it.
		if want.err != io.EOF && !errors.Is(want.err, io.ErrUnexpectedEOF) {
			t.Fatalf("reader %v, oracle %v", got.err, want.err)
		}
	default:
		t.Fatalf("reader ended with %v, oracle with %v", got.err, want.err)
	}
}

// TestPcapReaderMatchesOracle checks the in-place reader against the
// copy-per-record reader it replaced, field for field and payload byte
// for payload byte, on generated captures in both byte orders and both
// timestamp resolutions, holding TCP, UDP, ICMP and other IPv4 frames
// with and without payload, IHL above 5, frames from empty up to the
// snaplen, and frames the parser rejects. Captures are large enough
// that the reader's buffer is refilled many times before payloads are
// compared.
func TestPcapReaderMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		order := binary.ByteOrder(binary.LittleEndian)
		if seed%2 == 1 {
			order = binary.BigEndian
		}
		nanos := seed%4 >= 2
		rng := rand.New(rand.NewSource(seed))
		data := randomCapture(rng, 200+rng.Intn(300), order, nanos)
		r, err := NewPcapReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got := drain(r.NextValid)
		if got.err != io.EOF {
			t.Fatalf("seed %d: err %v, want a clean read", seed, got.err)
		}
		first := got.pkts[0].Payload
		checkAgainstOracle(t, data)
		if string(first) != "hello" {
			t.Fatalf("seed %d: first payload %q after the stream was read, want %q", seed, first, "hello")
		}
	}
}

// TestPcapReaderMatchesOracleMalformed covers cut captures and corrupt
// capture lengths, where the two readers may differ only in the
// stream-error fixes. A cut capture must end cleanly exactly when the
// cut falls on a record boundary; every other cut, inside a record
// header included, is a truncated record.
func TestPcapReaderMatchesOracleMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	data := randomCapture(rng, 40, binary.LittleEndian, false)
	boundary := map[int]bool{}
	var cuts []int
	for off := 24; off <= len(data); off += pcapRecHeaderLen + int(binary.LittleEndian.Uint32(data[off+8:off+12])) {
		boundary[off] = true
		if off < len(data) {
			// Inside the record header, at both ends and the middle.
			cuts = append(cuts, off+1, off+8, off+pcapRecHeaderLen-1)
		}
	}
	for cut := 24; cut <= len(data); cut += 1 + rng.Intn(97) {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		checkAgainstOracle(t, data[:cut])
		err := drain(mustOpen(t, data[:cut]).NextValid).err
		if boundary[cut] && err != io.EOF || !boundary[cut] && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d (record boundary: %v): reader ended with %v", cut, boundary[cut], err)
		}
	}
	for i := 0; i < 50; i++ {
		bad := append([]byte(nil), data...)
		bad[24+rng.Intn(len(bad)-24)] ^= byte(1 + rng.Intn(255))
		checkAgainstOracle(t, bad)
	}
}

// TestPcapReaderMatchesOracleOversize covers captures whose file
// header declares tcpdump's 262144 B snaplen and which hold records
// longer than 65535 captured bytes, whole and cut short.
func TestPcapReaderMatchesOracleOversize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := captureHeader(binary.LittleEndian, false)
	binary.LittleEndian.PutUint32(data[16:20], pcapMaxSnapLen)
	for i := 0; i < 30; i++ {
		f := randomFrame(rng)
		if i%10 == 5 {
			// An IPv4 frame too large for the read buffer, up to the
			// file's snaplen.
			f = make([]byte, pcapSnapLen+1+rng.Intn(pcapMaxSnapLen-pcapSnapLen))
			rng.Read(f)
			f[12], f[13], f[14] = 0x08, 0x00, 0x45
		}
		data = appendRecord(data, binary.LittleEndian, uint32(i), 0, uint32(len(f)), f)
	}
	checkAgainstOracle(t, data)
	for cut := 24; cut < len(data); cut += 1 + rng.Intn(len(data)/16) {
		checkAgainstOracle(t, data[:cut])
	}
}

// FuzzPcapReaderOracle runs the oracle comparison on arbitrary bytes.
func FuzzPcapReaderOracle(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		order := binary.ByteOrder(binary.LittleEndian)
		if seed%2 == 1 {
			order = binary.BigEndian
		}
		// Small captures keep the seed corpus cheap: drop the frames
		// past 1 KiB.
		data := captureHeader(order, seed >= 2)
		for i := 0; i < 12; i++ {
			if fr := randomFrame(rng); len(fr) <= 1024 {
				data = appendRecord(data, order, uint32(i), uint32(i), uint32(len(fr)), fr)
			}
		}
		f.Add(data)
	}
	raw := fourRecordCapture(f)
	recLen := (len(raw) - 24) / 4
	snap := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(snap[24+recLen+8:], 70000)
	f.Add(snap)
	f.Add(raw[:24+2*recLen+16])
	// tcpdump's snaplen, and a record above 65535 B that is cut short.
	big := append([]byte(nil), snap[:24+recLen+16+100]...)
	binary.LittleEndian.PutUint32(big[16:20], pcapMaxSnapLen)
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
	})
}
