// Package fed federates several iGuard serving runtimes under one
// controller-plane hub: a blacklist rule installed on one switch
// propagates to every other switch within a bounded delay, so an
// attacker flagged at one vantage point is blocked at all of them.
//
// The package has three parts. This file defines the wire protocol: a
// versioned, length-prefixed TCP framing with fixed-width (varint-free)
// big-endian encoding and per-connection sequence numbers. hub.go runs
// the rendezvous point — it accepts N node connections, dedups
// announcements by canonical flow key, and rebroadcasts installs to
// every other node. agent.go runs on each node, bridging the local
// serving runtime to the hub with a bounded outbox and
// reconnect-with-backoff, so a dead hub degrades the node to exactly
// its standalone behaviour instead of ever blocking the data path.
//
// Frame layout (all integers big-endian):
//
//	| length uint32 | type uint8 | seq uint64 | payload… |
//
// length counts everything after itself (type + seq + payload), so a
// reader fetches 4 bytes, then exactly length more. Payload widths are
// fixed per type:
//
//	HELLO     magic [4]byte "iGFD", version uint16, node uint64  (14 B)
//	ANNOUNCE  canonical flow key, 13-byte digest layout          (13 B)
//	INSTALL   canonical flow key                                 (13 B)
//	REMOVE    canonical flow key                                 (13 B)
//	FLUSH     —                                                  (0 B)
//	STATS     6 × uint64 counters                                (48 B)
//	KEEPALIVE —                                                  (0 B)
//
// Sequence numbers are per connection and per direction: each side
// numbers its outgoing frames 1, 2, 3, … with no gaps (keepalives
// included), and a receiver treats any discontinuity as a protocol
// error and drops the connection. A reconnect starts a new connection
// and a new sequence space; the hub resynchronises the joiner by
// replaying its current entry set as INSTALL frames, which makes
// convergence after any partition a plain rejoin.
package fed

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"iguard/internal/features"
)

// Version is the protocol revision carried in HELLO frames. Peers
// refuse to talk across versions: the encoding is fixed-width, so a
// frame from a different revision would be silently misparsed rather
// than detectably wrong.
const Version uint16 = 1

// helloMagic opens every HELLO payload; a listener that receives
// anything else on a fresh connection is being probed by something
// that is not an iGuard node.
var helloMagic = [4]byte{'i', 'G', 'F', 'D'}

// Type discriminates frames.
type Type uint8

// Frame types. The zero value is invalid so an unset Frame is never a
// valid wire object.
const (
	THello Type = iota + 1
	TAnnounce
	TInstall
	TRemove
	TFlush
	TStats
	TKeepalive
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case TAnnounce:
		return "announce"
	case TInstall:
		return "install"
	case TRemove:
		return "remove"
	case TFlush:
		return "flush"
	case TStats:
		return "stats"
	case TKeepalive:
		return "keepalive"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Payload widths per type (bytes after the 9-byte type+seq header).
const (
	helloLen = 4 + 2 + 8
	keyLen   = 13
	statsLen = 6 * 8
)

// headerLen is the fixed type+seq prefix counted by the length field.
const headerLen = 1 + 8

// MaxFrameLen bounds a whole encoded frame (length prefix included):
// the largest payload is STATS at 48 bytes. Readers reject any length
// field that would exceed it before allocating or reading the body, so
// a corrupt or hostile peer cannot make a node buffer garbage.
const MaxFrameLen = 4 + headerLen + statsLen

// StatsPayload is the fixed-width counter block a node reports in
// STATS frames. The hub keeps the latest payload per node; the fields
// mirror the node-side serve/agent counters that matter for a fleet
// overview.
type StatsPayload struct {
	Packets      uint64 `json:"packets"`
	Installed    uint64 `json:"installed"`
	Evicted      uint64 `json:"evicted"`
	BlacklistLen uint64 `json:"blacklist_len"`
	QueueDrops   uint64 `json:"queue_drops"`
	OutboxDrops  uint64 `json:"outbox_drops"`
}

// Frame is one decoded protocol message. Which payload fields are
// meaningful depends on Type: Node and HelloVersion for THello, Key
// for TAnnounce/TInstall/TRemove, Stats for TStats; TFlush and
// TKeepalive carry nothing beyond the header.
type Frame struct {
	Type Type
	Seq  uint64

	HelloVersion uint16
	Node         uint64

	Key features.FlowKey

	Stats StatsPayload
}

// Codec errors. DecodeFrame returns exactly one of these (possibly
// wrapped with position detail) for every malformed input; it never
// panics, which the fuzz target pins.
var (
	ErrTruncated   = errors.New("fed: truncated frame")
	ErrOversize    = errors.New("fed: frame length exceeds protocol maximum")
	ErrUnknownType = errors.New("fed: unknown frame type")
	ErrBadLength   = errors.New("fed: frame length does not match type")
	ErrBadMagic    = errors.New("fed: bad hello magic")
)

// payloadLen returns the exact payload width for a frame type, or -1
// for an unknown type.
func payloadLen(t Type) int {
	switch t {
	case THello:
		return helloLen
	case TAnnounce, TInstall, TRemove:
		return keyLen
	case TFlush, TKeepalive:
		return 0
	case TStats:
		return statsLen
	}
	return -1
}

// AppendFrame encodes f onto dst and returns the extended slice. It
// errors on a frame whose Type is unknown (the zero Frame included)
// rather than emitting bytes no decoder accepts.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	plen := payloadLen(f.Type)
	if plen < 0 {
		return dst, fmt.Errorf("%w: %d", ErrUnknownType, uint8(f.Type))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerLen+plen))
	dst = append(dst, byte(f.Type))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	switch f.Type {
	case THello:
		dst = append(dst, helloMagic[:]...)
		dst = binary.BigEndian.AppendUint16(dst, f.HelloVersion)
		dst = binary.BigEndian.AppendUint64(dst, f.Node)
	case TAnnounce, TInstall, TRemove:
		kb := f.Key.Bytes()
		dst = append(dst, kb[:]...)
	case TStats:
		dst = binary.BigEndian.AppendUint64(dst, f.Stats.Packets)
		dst = binary.BigEndian.AppendUint64(dst, f.Stats.Installed)
		dst = binary.BigEndian.AppendUint64(dst, f.Stats.Evicted)
		dst = binary.BigEndian.AppendUint64(dst, f.Stats.BlacklistLen)
		dst = binary.BigEndian.AppendUint64(dst, f.Stats.QueueDrops)
		dst = binary.BigEndian.AppendUint64(dst, f.Stats.OutboxDrops)
	}
	return dst, nil
}

// bodyLen reads a frame's length prefix from the front of b (which
// holds at least 4 bytes) and checks it against the protocol bounds
// before anything is read or allocated on its say-so.
func bodyLen(b []byte) (int, error) {
	blen := int(binary.BigEndian.Uint32(b))
	if blen > MaxFrameLen-4 {
		return 0, fmt.Errorf("%w: %d bytes", ErrOversize, blen)
	}
	if blen < headerLen {
		return 0, fmt.Errorf("%w: body %d bytes, need at least %d", ErrBadLength, blen, headerLen)
	}
	return blen, nil
}

// DecodeFrame parses one frame from the front of b, returning the
// frame and the number of bytes consumed. A short buffer returns
// ErrTruncated (read more and retry); every other error is a permanent
// protocol violation. Trailing bytes beyond the first frame are left
// for the next call, so the decoder composes with any buffering
// strategy.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, ErrTruncated
	}
	blen, err := bodyLen(b)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b) < 4+blen {
		return Frame{}, 0, ErrTruncated
	}
	body := b[4 : 4+blen]
	f := Frame{Type: Type(body[0]), Seq: binary.BigEndian.Uint64(body[1:9])}
	plen := payloadLen(f.Type)
	if plen < 0 {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrUnknownType, body[0])
	}
	if blen != headerLen+plen {
		return Frame{}, 0, fmt.Errorf("%w: %s wants %d payload bytes, got %d", ErrBadLength, f.Type, plen, blen-headerLen)
	}
	p := body[headerLen:]
	switch f.Type {
	case THello:
		if [4]byte(p[0:4]) != helloMagic {
			return Frame{}, 0, ErrBadMagic
		}
		f.HelloVersion = binary.BigEndian.Uint16(p[4:6])
		f.Node = binary.BigEndian.Uint64(p[6:14])
	case TAnnounce, TInstall, TRemove:
		f.Key = features.FlowKeyFromBytes([13]byte(p))
	case TStats:
		f.Stats = StatsPayload{
			Packets:      binary.BigEndian.Uint64(p[0:8]),
			Installed:    binary.BigEndian.Uint64(p[8:16]),
			Evicted:      binary.BigEndian.Uint64(p[16:24]),
			BlacklistLen: binary.BigEndian.Uint64(p[24:32]),
			QueueDrops:   binary.BigEndian.Uint64(p[32:40]),
			OutboxDrops:  binary.BigEndian.Uint64(p[40:48]),
		}
	}
	return f, 4 + blen, nil
}

// connBufSize sizes the per-connection bufio.Reader and bufio.Writer.
// A burst of 26-byte key frames shares one 4 KiB segment (156 frames),
// and any frame fits whole, so a reader can always Peek one.
const connBufSize = 4096

// WriteFrame encodes f straight into w's free buffer space. The frame
// reaches the connection when w is flushed or fills up.
func WriteFrame(w *bufio.Writer, f *Frame) error {
	if w.Available() < MaxFrameLen {
		// Make room first so the append below never outgrows the
		// buffer (which would copy the frame into a fresh slice).
		if err := w.Flush(); err != nil {
			return err
		}
	}
	buf, err := AppendFrame(w.AvailableBuffer(), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// frameWriter is one connection's write side, shared by the agent
// session and the hub's per-node writer: it numbers outgoing frames
// 1, 2, 3, … and buffers them, so the I/O is per burst, not per frame.
type frameWriter struct {
	bw  *bufio.Writer
	seq uint64
}

func newFrameWriter(conn net.Conn) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(conn, connBufSize)}
}

// write numbers f and buffers it.
func (w *frameWriter) write(f Frame) error {
	w.seq++
	f.Seq = w.seq
	return WriteFrame(w.bw, &f)
}

// send writes f and flushes at once (HELLO, KEEPALIVE).
func (w *frameWriter) send(f Frame) error {
	if err := w.write(f); err != nil {
		return err
	}
	return w.bw.Flush()
}

// burst writes f and the frames queued behind it in q (the caller is
// q's only receiver) until q is seen empty or the buffer is full, then
// flushes: a burst leaves in one write, a lone frame is never held
// back, and nothing stays buffered between bursts. On error it returns
// how many of the burst's frames (f included) were taken but never
// confirmed written to the connection.
func (w *frameWriter) burst(f Frame, q <-chan Frame) (lost int, err error) {
	for {
		lost++
		if err := w.write(f); err != nil {
			return lost, err
		}
		if len(q) == 0 || w.bw.Available() < MaxFrameLen {
			break
		}
		f = <-q
	}
	if err := w.bw.Flush(); err != nil {
		return lost, err
	}
	return 0, nil
}

// ReadFrame reads exactly one frame from r into f, decoding it in
// place from r's buffer. io.EOF is returned untouched on a clean close
// between frames; a close mid-frame surfaces as io.ErrUnexpectedEOF.
// r must buffer at least MaxFrameLen bytes (connBufSize does).
func ReadFrame(r *bufio.Reader, f *Frame) error {
	prefix, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	blen, err := bodyLen(prefix)
	if err != nil {
		return err
	}
	b, err := r.Peek(4 + blen)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	got, n, err := DecodeFrame(b)
	if err != nil {
		return err
	}
	*f = got
	_, err = r.Discard(n)
	return err
}
