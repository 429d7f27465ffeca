package netpkt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Classic libpcap file constants (microsecond timestamps, little-endian
// as written by this package; the reader accepts both endiannesses).
const (
	pcapMagicLE     = 0xa1b2c3d4
	pcapMagicBE     = 0xd4c3b2a1
	pcapVersionMaj  = 2
	pcapVersionMin  = 4
	pcapLinkTypeEth = 1
	pcapSnapLen     = 65535
)

// PcapWriter writes packets to a classic pcap stream.
type PcapWriter struct {
	w           *bufio.Writer
	headerDone  bool
	PacketCount int
}

// NewPcapWriter wraps w. The file header is written lazily on the first
// packet so creating a writer is side-effect free.
func NewPcapWriter(w io.Writer) *PcapWriter {
	return &PcapWriter{w: bufio.NewWriter(w)}
}

func (pw *PcapWriter) writeHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicLE)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMaj)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMin)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapLinkTypeEth)
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket serialises p and appends it as one pcap record.
func (pw *PcapWriter) WritePacket(p *Packet) error {
	if !pw.headerDone {
		if err := pw.writeHeader(); err != nil {
			return err
		}
		pw.headerDone = true
	}
	frame := p.Marshal()
	origLen := p.Length
	if origLen < len(frame) {
		origLen = len(frame)
	}
	var rec [16]byte
	ts := p.Timestamp
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(origLen))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	if _, err := pw.w.Write(frame); err != nil {
		return err
	}
	pw.PacketCount++
	return nil
}

// Flush drains buffered bytes to the underlying writer.
func (pw *PcapWriter) Flush() error { return pw.w.Flush() }

// PcapReader reads packets from a classic pcap stream.
type PcapReader struct {
	r     *bufio.Reader
	order binary.ByteOrder
	// rec is the record-header scratch Next reads into. A local array
	// passed to io.ReadFull escapes to the heap on every call; a field
	// of the reader does not.
	rec [16]byte
	// Nanosecond reports whether the file uses nanosecond timestamps
	// (magic 0xa1b23c4d).
	Nanosecond bool
}

// NewPcapReader parses the file header and returns a reader. It rejects
// non-Ethernet link types.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("netpkt: pcap header: %w", err)
	}
	pr := &PcapReader{r: br}
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

// Next returns the next packet, or io.EOF at end of stream. Frames that
// fail to parse (non-IPv4 etc.) are returned as errors distinct from
// io.EOF so callers can skip them.
func (pr *PcapReader) Next() (Packet, error) {
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
	// A fresh frame buffer per record: the returned Packet's Payload
	// aliases it.
	data := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Packet{}, fmt.Errorf("netpkt: truncated record: %w", err)
	}
	nanos := int64(frac) * 1000
	if pr.Nanosecond {
		nanos = int64(frac)
	}
	ts := time.Unix(int64(sec), nanos).UTC()
	return Unmarshal(data, ts, int(origLen))
}

// NextValid returns the next parseable IPv4 packet, silently skipping
// the frames ReadAll would skip (non-IPv4, malformed). It is the
// streaming equivalent of ReadAll for consumers that must not buffer
// the whole trace — e.g. the serve runtime ingesting a capture file.
// io.EOF marks a clean end of stream; I/O errors propagate.
func (pr *PcapReader) NextValid() (Packet, error) {
	for {
		p, err := pr.Next()
		if err == nil {
			return p, nil
		}
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		if isParseErr(err) {
			continue
		}
		return Packet{}, err
	}
}

// NextValidBatch fills buf with up to len(buf) parseable IPv4 packets,
// skipping the frames NextValid skips, and returns how many it wrote.
// It is the batch face of NextValid — one call per batch instead of
// one per packet, which is what lets a replaying producer amortise the
// read loop. buf[:n] is valid even when err is non-nil (a partial
// batch is delivered together with io.EOF or the stream error that cut
// it short).
func (pr *PcapReader) NextValidBatch(buf []Packet) (n int, err error) {
	for n < len(buf) {
		p, err := pr.NextValid()
		if err != nil {
			return n, err
		}
		buf[n] = p
		n++
	}
	return n, nil
}

// ReadAll drains the reader, silently skipping unparseable frames, and
// returns every IPv4 packet.
func (pr *PcapReader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := pr.NextValid()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// isParseErr distinguishes frame-level parse failures (skippable) from
// stream-level failures by message origin.
func isParseErr(err error) bool {
	msg := err.Error()
	return len(msg) >= 7 && msg[:7] == "netpkt:" &&
		msg != "netpkt: truncated record: unexpected EOF"
}
