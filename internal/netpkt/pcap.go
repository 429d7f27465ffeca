package netpkt

import (
	"bufio"
	"bytes"
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
	// pcapMaxSnapLen is the largest snaplen a reader honours, libpcap's
	// MAXIMUM_SNAPLEN (also tcpdump's default snaplen).
	pcapMaxSnapLen = 262144
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

// PcapReader reads packets from a classic pcap stream. Its read buffer
// holds any record of up to 65535 captured bytes whole, so such a
// record is parsed in place in the buffer; only payload bytes are
// copied out (see the package doc).
type PcapReader struct {
	r     *bufio.Reader
	order binary.ByteOrder
	// snapLen is the largest capture length the stream may hold: the
	// file header's snaplen, clamped to [pcapSnapLen, pcapMaxSnapLen].
	snapLen uint32
	// Nanosecond reports whether the file uses nanosecond timestamps
	// (magic 0xa1b23c4d).
	Nanosecond bool
}

const (
	// pcapRecHeaderLen is the size of a record header: seconds,
	// sub-second fraction, captured length, original length.
	pcapRecHeaderLen = 16
)

// NewPcapReader parses the file header and returns a reader. It rejects
// non-Ethernet link types.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	br := bufio.NewReaderSize(r, pcapRecHeaderLen+pcapSnapLen)
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
	pr.snapLen = min(max(pr.order.Uint32(hdr[16:20]), pcapSnapLen), pcapMaxSnapLen)
	return pr, nil
}

// next reads one record into *p: the one record path behind Next,
// NextValid, NextValidBatch and ReadAll. It returns nil; io.EOF when
// the capture ends on a record boundary; a frame error for a record
// read whole whose frame does not parse, in which case the record is
// consumed and the caller may go on; or a stream error — a capture
// length above the file's snaplen, a record cut short (inside its
// header or its frame), an I/O error — after which the stream cannot
// be resynchronised.
//
// A record longer than 65535 captured bytes but within the file's
// snaplen (tcpdump's default is 262144) is legal but does not fit the
// read buffer. It is discarded unparsed and reported as a frame error.
func (pr *PcapReader) next(p *Packet) error {
	rec, err := pr.r.Peek(pcapRecHeaderLen)
	if err != nil {
		if err == io.EOF && len(rec) > 0 {
			return truncated(err) // a record header cut short
		}
		return err
	}
	capLen := pr.order.Uint32(rec[8:12])
	if capLen > pr.snapLen {
		return fmt.Errorf("netpkt: capture length %d exceeds snaplen %d", capLen, pr.snapLen)
	}
	n := pcapRecHeaderLen + int(capLen)
	if capLen > pcapSnapLen {
		if _, err := pr.r.Discard(n); err != nil {
			return truncated(err)
		}
		return frameErrorf("frame of %d bytes exceeds %d, skipped", capLen, pcapSnapLen)
	}
	if rec, err = pr.r.Peek(n); err != nil {
		return truncated(err)
	}
	nanos := int64(pr.order.Uint32(rec[4:8]))
	if !pr.Nanosecond {
		nanos *= 1000
	}
	ts := time.Unix(int64(pr.order.Uint32(rec[0:4])), nanos).UTC()
	perr := unmarshalInto(p, rec[pcapRecHeaderLen:n], ts, int(pr.order.Uint32(rec[12:16])))
	if perr == nil {
		// Copy the payload out of the read buffer; an empty one is nil.
		if len(p.Payload) == 0 {
			p.Payload = nil
		} else {
			p.Payload = bytes.Clone(p.Payload)
		}
	}
	// Peek buffered the n bytes, so the discard cannot come up short.
	if _, err := pr.r.Discard(n); err != nil {
		return err
	}
	return perr
}

// truncated wraps a failure to read a whole record, header or frame.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("netpkt: truncated record: %w", err)
}

// nextValid is next skipping frame errors.
func (pr *PcapReader) nextValid(p *Packet) error {
	for {
		err := pr.next(p)
		if err == nil || err == io.EOF || !isFrameErr(err) {
			return err
		}
	}
}

// Next returns the next packet, or io.EOF at end of stream. A frame
// that fails to parse (non-IPv4 etc.) is returned as an error distinct
// from io.EOF so callers can skip it; any other error ends the stream.
func (pr *PcapReader) Next() (Packet, error) {
	var p Packet
	err := pr.next(&p)
	return p, err
}

// NextValid returns the next parseable IPv4 packet, silently skipping
// the frames ReadAll would skip (non-IPv4, malformed). It is the
// streaming equivalent of ReadAll for consumers that must not buffer
// the whole trace — e.g. the serve runtime ingesting a capture file.
// io.EOF marks a clean end of stream; stream errors (I/O errors, a
// truncated record, a capture length above the file's snaplen)
// propagate.
func (pr *PcapReader) NextValid() (Packet, error) {
	var p Packet
	if err := pr.nextValid(&p); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// NextValidBatch fills buf with up to len(buf) parseable IPv4 packets,
// skipping the frames NextValid skips, and returns how many it wrote.
// It is the batch face of NextValid — one call per batch instead of
// one per packet, which is what lets a replaying producer amortise the
// read loop. Each packet is decoded straight into its slot, and a
// batch of header-only frames allocates nothing. buf[:n] is valid even
// when err is non-nil (a partial batch is delivered together with
// io.EOF or the stream error that cut it short); buf[n:] may have been
// written.
func (pr *PcapReader) NextValidBatch(buf []Packet) (n int, err error) {
	for n < len(buf) {
		if err := pr.nextValid(&buf[n]); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ReadAll drains the reader, silently skipping unparseable frames, and
// returns every IPv4 packet.
func (pr *PcapReader) ReadAll() ([]Packet, error) {
	var out []Packet
	var p Packet
	for {
		err := pr.nextValid(&p)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
