package features

import (
	"bytes"
	"math"
	"sort"
	"time"

	"iguard/internal/netpkt"
)

// FLDim is the number of flow-level features (the 13 of §4.2).
const FLDim = 13

// PLDim is the number of packet-level features.
const PLDim = 4

// FL feature vector indices, in the order §4.2 lists them.
const (
	FLPktCount = iota
	FLTotalSize
	FLAvgSize
	FLStdSize
	FLVarSize
	FLMinSize
	FLMaxSize
	FLAvgIPD
	FLMinIPD
	FLVarIPD
	FLStdIPD
	FLMaxIPD
	FLDuration
)

// FLNames lists human-readable FL feature names by index.
var FLNames = [FLDim]string{
	"pkt_count", "total_size", "avg_size", "std_size", "var_size",
	"min_size", "max_size", "avg_ipd", "min_ipd", "var_ipd",
	"std_ipd", "max_ipd", "duration",
}

// PL feature vector indices.
const (
	PLDstPort = iota
	PLProto
	PLLength
	PLTTL
)

// PLNames lists human-readable PL feature names by index.
var PLNames = [PLDim]string{"dst_port", "proto", "length", "ttl"}

// PLVector extracts the 4 packet-level features of one packet.
func PLVector(p *netpkt.Packet) []float64 {
	return PLVectorInto(make([]float64, PLDim), p)
}

// PLVectorInto writes the 4 packet-level features into dst, which must
// have capacity at least PLDim, and returns dst[:PLDim]. It is the
// allocation-free form of PLVector for per-packet hot paths.
func PLVectorInto(dst []float64, p *netpkt.Packet) []float64 {
	return PLFieldsOf(p).VectorInto(dst)
}

// PLFields is the raw header form of a packet's PL vector: the four
// fields PLVectorInto reads, packed into 8 bytes, so a flow-table slot
// can keep its first packet's PL features without a [PLDim]float64.
// Length is stored in 32 bits: pcap's original-length field is a
// uint32, so every captured packet's length fits.
type PLFields struct {
	Length  uint32
	DstPort uint16
	Proto   uint8
	TTL     uint8
}

// PLFieldsOf captures the PL header fields of one packet.
func PLFieldsOf(p *netpkt.Packet) PLFields {
	return PLFields{Length: uint32(p.Length), DstPort: p.DstPort, Proto: p.Proto, TTL: p.TTL}
}

// VectorInto writes the 4 PL features into dst, which must have
// capacity at least PLDim, and returns dst[:PLDim].
func (f PLFields) VectorInto(dst []float64) []float64 {
	dst = dst[:PLDim]
	dst[PLDstPort] = float64(f.DstPort)
	dst[PLProto] = float64(f.Proto)
	dst[PLLength] = float64(f.Length)
	dst[PLTTL] = float64(f.TTL)
	return dst
}

// FlowState accumulates flow-level statistics one packet at a time with
// O(1) state — exactly the registers the switch pipeline maintains
// (count, size sums and extrema, IPD sums and extrema, timestamps).
//
// FirstSeen and LastSeen are trace time in Unix nanoseconds, which
// covers 1678–2262; every pcap timestamp (an unsigned 32-bit second
// count from 1970) lies in that range. Only differences of the two are
// ever read, and each difference goes through time.Duration, so the
// IPDs, the duration and IdleFor equal the time.Time arithmetic on the
// same instants bit for bit.
type FlowState struct {
	Count      int
	SizeSum    float64
	SizeSqSum  float64
	SizeMin    float64
	SizeMax    float64
	IPDSum     float64
	IPDSqSum   float64
	IPDMin     float64
	IPDMax     float64
	FirstSeen  int64
	LastSeen   int64
	hasPackets bool
}

// Add folds one packet into the state. Packets must arrive in timestamp
// order per flow (the extractor guarantees this).
func (s *FlowState) Add(p *netpkt.Packet) { s.AddAt(p, p.Timestamp.UnixNano()) }

// AddAt is Add with the packet's timestamp already converted to Unix
// nanoseconds, for callers that convert it once per packet.
func (s *FlowState) AddAt(p *netpkt.Packet, now int64) {
	size := float64(p.Length)
	if !s.hasPackets {
		s.hasPackets = true
		s.FirstSeen = now
		s.SizeMin, s.SizeMax = size, size
	} else {
		ipd := time.Duration(now - s.LastSeen).Seconds()
		if ipd < 0 {
			ipd = 0
		}
		if s.Count == 1 {
			s.IPDMin, s.IPDMax = ipd, ipd
		} else {
			if ipd < s.IPDMin {
				s.IPDMin = ipd
			}
			if ipd > s.IPDMax {
				s.IPDMax = ipd
			}
		}
		s.IPDSum += ipd
		s.IPDSqSum += ipd * ipd
		if size < s.SizeMin {
			s.SizeMin = size
		}
		if size > s.SizeMax {
			s.SizeMax = size
		}
	}
	s.SizeSum += size
	s.SizeSqSum += size * size
	s.Count++
	s.LastSeen = now
}

// IdleFor reports whether the flow has been idle longer than timeout at
// the trace instant now (Unix nanoseconds).
func (s *FlowState) IdleFor(now int64, timeout time.Duration) bool {
	return s.hasPackets && time.Duration(now-s.LastSeen) > timeout
}

// Vector materialises the 13 FL features from the accumulated state.
func (s *FlowState) Vector() []float64 {
	return s.VectorInto(make([]float64, FLDim))
}

// VectorInto materialises the 13 FL features into v, which must have
// capacity at least FLDim, and returns v[:FLDim]. The scratch is fully
// overwritten, so it may be dirty. It is the allocation-free form of
// Vector for per-packet hot paths.
func (s *FlowState) VectorInto(v []float64) []float64 {
	v = v[:FLDim]
	for i := range v {
		v[i] = 0
	}
	if s.Count == 0 {
		return v
	}
	n := float64(s.Count)
	v[FLPktCount] = n
	v[FLTotalSize] = s.SizeSum
	v[FLAvgSize] = s.SizeSum / n
	varSize := s.SizeSqSum/n - v[FLAvgSize]*v[FLAvgSize]
	if varSize < 0 {
		varSize = 0
	}
	v[FLVarSize] = varSize
	v[FLStdSize] = math.Sqrt(varSize)
	v[FLMinSize] = s.SizeMin
	v[FLMaxSize] = s.SizeMax
	if s.Count > 1 {
		m := n - 1 // number of IPD observations
		v[FLAvgIPD] = s.IPDSum / m
		varIPD := s.IPDSqSum/m - v[FLAvgIPD]*v[FLAvgIPD]
		if varIPD < 0 {
			varIPD = 0
		}
		v[FLVarIPD] = varIPD
		v[FLStdIPD] = math.Sqrt(varIPD)
		v[FLMinIPD] = s.IPDMin
		v[FLMaxIPD] = s.IPDMax
	}
	v[FLDuration] = time.Duration(s.LastSeen - s.FirstSeen).Seconds()
	return v
}

// Sample is one emitted flow observation: its key, FL vector, the PL
// vector of its first packet, and the reason it was emitted.
type Sample struct {
	Key     FlowKey
	FL      []float64
	FirstPL []float64
	// Reason records why the sample was emitted.
	Reason EmitReason
}

// EmitReason enumerates why a flow sample was produced.
type EmitReason int

// Emission reasons.
const (
	// EmitPktCount means the flow reached the packet-count threshold n.
	EmitPktCount EmitReason = iota
	// EmitTimeout means the flow idled past δ.
	EmitTimeout
	// EmitFlush means the extractor was flushed at end of trace.
	EmitFlush
)

// String implements fmt.Stringer.
func (r EmitReason) String() string {
	switch r {
	case EmitPktCount:
		return "pkt_count"
	case EmitTimeout:
		return "timeout"
	default:
		return "flush"
	}
}

// Extractor groups a packet stream into bidirectional flows and emits a
// Sample whenever a flow reaches the packet-count threshold n or idles
// past timeout δ — the switch-tailored truncation of §3.3.1.
type Extractor struct {
	// N is the per-flow packet-count threshold (FL features are emitted
	// at the n-th packet and state is released).
	N int
	// Timeout is δ, the idle timeout.
	Timeout time.Duration

	flows map[FlowKey]*flowEntry
}

type flowEntry struct {
	state   FlowState
	firstPL []float64
}

// NewExtractor returns an extractor with the given thresholds.
func NewExtractor(n int, timeout time.Duration) *Extractor {
	if n <= 0 {
		n = 16
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Extractor{N: n, Timeout: timeout, flows: map[FlowKey]*flowEntry{}}
}

// Feed processes one packet and returns emitted samples (flows that hit
// the packet threshold with this packet, plus any flows the packet's
// timestamp reveals as timed out).
func (e *Extractor) Feed(p *netpkt.Packet) []Sample {
	var out []Sample
	now := p.Timestamp.UnixNano()

	// Timeout sweep: flows idle past δ are emitted and cleared. The
	// switch does this with per-slot timestamp registers; a sweep over
	// the (small) active map models it faithfully offline. Emission
	// order is made deterministic (sorted by key) so downstream training
	// is bit-reproducible.
	var expired []FlowKey
	for key, fe := range e.flows { //iguard:sorted keys are collected then sorted before emission
		if fe.state.IdleFor(now, e.Timeout) {
			expired = append(expired, key)
		}
	}
	sortKeys(expired)
	for _, key := range expired {
		fe := e.flows[key]
		out = append(out, Sample{Key: key, FL: fe.state.Vector(), FirstPL: fe.firstPL, Reason: EmitTimeout})
		delete(e.flows, key)
	}

	key := KeyOf(p).Canonical()
	fe, ok := e.flows[key]
	if !ok {
		fe = &flowEntry{firstPL: PLVector(p)}
		e.flows[key] = fe
	}
	fe.state.Add(p)
	if fe.state.Count >= e.N {
		out = append(out, Sample{Key: key, FL: fe.state.Vector(), FirstPL: fe.firstPL, Reason: EmitPktCount})
		delete(e.flows, key)
	}
	return out
}

// Flush emits every remaining flow (end of trace) in deterministic
// (key-sorted) order.
func (e *Extractor) Flush() []Sample {
	keys := make([]FlowKey, 0, len(e.flows))
	for key := range e.flows { //iguard:sorted keys are collected then sorted before emission
		keys = append(keys, key)
	}
	sortKeys(keys)
	var out []Sample
	for _, key := range keys {
		fe := e.flows[key]
		out = append(out, Sample{Key: key, FL: fe.state.Vector(), FirstPL: fe.firstPL, Reason: EmitFlush})
		delete(e.flows, key)
	}
	return out
}

// sortKeys orders flow keys by their canonical byte layout.
func sortKeys(keys []FlowKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i].Bytes(), keys[j].Bytes()
		return bytes.Compare(a[:], b[:]) < 0
	})
}

// Active returns the number of flows currently holding state.
func (e *Extractor) Active() int { return len(e.flows) }

// ExtractAll runs a full packet slice through a fresh extractor and
// returns every emitted sample including the flush.
func ExtractAll(packets []netpkt.Packet, n int, timeout time.Duration) []Sample {
	e := NewExtractor(n, timeout)
	var out []Sample
	for i := range packets {
		out = append(out, e.Feed(&packets[i])...)
	}
	return append(out, e.Flush()...)
}
