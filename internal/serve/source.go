package serve

import (
	"io"

	"iguard/internal/netpkt"
)

// Source is a streaming packet supply: NextBatch fills buf with up to
// len(buf) packets in capture order and returns how many it wrote.
// buf[:n] is valid even when err is non-nil, so a partial read at end
// of stream is delivered alongside io.EOF's arrival on the following
// call — or, equally validly, together with it (n > 0 with err ==
// io.EOF means "these packets, then the end").
type Source interface {
	NextBatch(buf []netpkt.Packet) (n int, err error)
}

// PcapSource streams a capture file, skipping unparseable frames the
// way netpkt.(*PcapReader).ReadAll does — without buffering the trace.
// It reads a batch per call through the reader's batch face.
type PcapSource struct {
	R *netpkt.PcapReader
}

// NextBatch implements Source.
func (s PcapSource) NextBatch(buf []netpkt.Packet) (int, error) { return s.R.NextValidBatch(buf) }

// TraceSource replays an in-memory packet slice (e.g. a synthetic
// traffic.Trace) as a Source.
type TraceSource struct {
	packets []netpkt.Packet
	i       int
}

// NewTraceSource wraps packets; the slice is read, never copied, so
// the caller must not mutate it while the replay runs.
func NewTraceSource(packets []netpkt.Packet) *TraceSource {
	return &TraceSource{packets: packets}
}

// NextBatch implements Source: one copy from the backing slice per
// batch.
func (s *TraceSource) NextBatch(buf []netpkt.Packet) (int, error) {
	if s.i >= len(s.packets) {
		return 0, io.EOF
	}
	n := copy(buf, s.packets[s.i:])
	s.i += n
	return n, nil
}
