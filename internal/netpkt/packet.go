// Package netpkt provides the packet substrate for iGuard: a compact
// packet model, Ethernet/IPv4/TCP/UDP parsing and serialisation, and
// classic libpcap trace file I/O. It plays the role gopacket and the
// authors' PCAP tooling play in the original system, using only the
// standard library.
//
// Payload contract: a Packet read by a PcapReader carries its own copy
// of its payload bytes, one allocation per payload. Nothing else refers
// to that copy, so Payload stays valid indefinitely — after later
// reads, after the reader is dropped — and a caller that keeps packets
// need not copy it. Payload is nil when the frame has no payload
// bytes, so header-only frames copy and allocate nothing. Unmarshal is
// the exception: its Payload aliases the frame it was given.
package netpkt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// Protocol numbers used by the traffic generators and feature extractor.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// Packet is one parsed IPv4 packet with the fields iGuard's data plane
// inspects. Payload carries the application bytes (possibly truncated;
// see the package doc for who owns them).
type Packet struct {
	Timestamp time.Time
	SrcIP     [4]byte
	DstIP     [4]byte
	SrcPort   uint16
	DstPort   uint16
	Proto     uint8
	TTL       uint8
	TCPFlags  uint8
	// Length is the wire length in bytes (Ethernet header included),
	// which may exceed len(Payload)+headers when the payload was
	// truncated at capture.
	Length  int
	Payload []byte
}

// SrcAddr returns the source as a netip.Addr.
func (p *Packet) SrcAddr() netip.Addr { return netip.AddrFrom4(p.SrcIP) }

// DstAddr returns the destination as a netip.Addr.
func (p *Packet) DstAddr() netip.Addr { return netip.AddrFrom4(p.DstIP) }

// String renders the packet headline for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s:%d > %s:%d proto=%d len=%d ttl=%d",
		p.Timestamp.Format("15:04:05.000000"),
		p.SrcAddr(), p.SrcPort, p.DstAddr(), p.DstPort, p.Proto, p.Length, p.TTL)
}

// Header sizes for serialisation.
const (
	ethHeaderLen  = 14
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
)

// headerOverhead returns the total header bytes for the packet's
// protocol stack.
func headerOverhead(proto uint8) int {
	switch proto {
	case ProtoTCP:
		return ethHeaderLen + ipv4HeaderLen + tcpHeaderLen
	case ProtoUDP:
		return ethHeaderLen + ipv4HeaderLen + udpHeaderLen
	default:
		return ethHeaderLen + ipv4HeaderLen
	}
}

// Marshal serialises the packet as Ethernet(IPv4(TCP|UDP(payload))).
// When p.Length exceeds the serialised size the IPv4 total-length field
// still reflects the real bytes written (capture truncation is a file-
// level concern, handled by the pcap writer's orig-length field).
func (p *Packet) Marshal() []byte {
	overhead := headerOverhead(p.Proto)
	buf := make([]byte, overhead+len(p.Payload))

	// Ethernet: synthetic MACs derived from the IPs, EtherType IPv4.
	copy(buf[0:6], []byte{0x02, 0x00, p.DstIP[0], p.DstIP[1], p.DstIP[2], p.DstIP[3]})
	copy(buf[6:12], []byte{0x02, 0x00, p.SrcIP[0], p.SrcIP[1], p.SrcIP[2], p.SrcIP[3]})
	binary.BigEndian.PutUint16(buf[12:14], 0x0800)

	// IPv4 header.
	ip := buf[ethHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	totalLen := len(buf) - ethHeaderLen
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	ip[8] = p.TTL
	ip[9] = p.Proto
	copy(ip[12:16], p.SrcIP[:])
	copy(ip[16:20], p.DstIP[:])
	binary.BigEndian.PutUint16(ip[10:12], ipv4Checksum(ip[:ipv4HeaderLen]))

	l4 := ip[ipv4HeaderLen:]
	switch p.Proto {
	case ProtoTCP:
		binary.BigEndian.PutUint16(l4[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], p.DstPort)
		l4[12] = 5 << 4 // data offset
		l4[13] = p.TCPFlags
		binary.BigEndian.PutUint16(l4[14:16], 65535) // window
		copy(l4[tcpHeaderLen:], p.Payload)
	case ProtoUDP:
		binary.BigEndian.PutUint16(l4[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], p.DstPort)
		binary.BigEndian.PutUint16(l4[4:6], uint16(udpHeaderLen+len(p.Payload)))
		copy(l4[udpHeaderLen:], p.Payload)
	default:
		copy(l4, p.Payload)
	}
	return buf
}

// ipv4Checksum computes the standard one's-complement header checksum
// with the checksum field assumed zero.
func ipv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// frameError is a frame-level parse failure: the frame was read whole
// but is not a parseable IPv4 packet (a non-IPv4 ethertype, truncated
// headers). It is the only failure a pcap reader skips; every other
// failure ends the stream.
type frameError struct{ msg string }

func (e *frameError) Error() string { return "netpkt: " + e.msg }

func frameErrorf(format string, args ...any) error {
	return &frameError{msg: fmt.Sprintf(format, args...)}
}

// isFrameErr reports whether err is (or wraps) a frame-level parse
// failure.
func isFrameErr(err error) bool {
	var fe *frameError
	return errors.As(err, &fe)
}

// Unmarshal parses an Ethernet(IPv4(...)) frame. The timestamp and
// wire length must be supplied by the caller (they come from the
// capture layer). Non-IPv4 frames and truncated headers return errors.
// The returned Payload aliases data.
func Unmarshal(data []byte, ts time.Time, wireLen int) (Packet, error) {
	var p Packet
	err := unmarshalInto(&p, data, ts, wireLen)
	return p, err
}

// unmarshalInto is Unmarshal writing into *p, which it overwrites
// whole; p.Payload aliases data. On error *p holds the fields parsed
// before the failure.
func unmarshalInto(p *Packet, data []byte, ts time.Time, wireLen int) error {
	*p = Packet{}
	if len(data) < ethHeaderLen+ipv4HeaderLen {
		return frameErrorf("frame too short: %d bytes", len(data))
	}
	etherType := binary.BigEndian.Uint16(data[12:14])
	if etherType != 0x0800 {
		return frameErrorf("unsupported ethertype 0x%04x", etherType)
	}
	ip := data[ethHeaderLen:]
	if ip[0]>>4 != 4 {
		return frameErrorf("not IPv4 (version %d)", ip[0]>>4)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(ip) < ihl {
		return frameErrorf("bad IHL %d", ihl)
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
			return frameErrorf("truncated TCP header")
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
			return frameErrorf("truncated UDP header")
		}
		p.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.DstPort = binary.BigEndian.Uint16(l4[2:4])
		p.Payload = l4[udpHeaderLen:]
	default:
		p.Payload = l4
	}
	return nil
}
