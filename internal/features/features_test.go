package features

import (
	"math"
	"testing"
	"time"

	"iguard/internal/netpkt"
)

func pkt(src, dst byte, sport, dport uint16, proto uint8, length int, at time.Duration) netpkt.Packet {
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	return netpkt.Packet{
		Timestamp: base.Add(at),
		SrcIP:     [4]byte{10, 0, 0, src},
		DstIP:     [4]byte{10, 0, 0, dst},
		SrcPort:   sport,
		DstPort:   dport,
		Proto:     proto,
		TTL:       64,
		Length:    length,
	}
}

func TestFlowKeyCanonicalSymmetric(t *testing.T) {
	p := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 0)
	fwd := KeyOf(&p)
	rev := fwd.Reverse()
	if fwd.Canonical() != rev.Canonical() {
		t.Error("forward and reverse keys canonicalise differently")
	}
	if fwd.Canonical() != fwd {
		t.Error("lower endpoint first: canonical of (1→2) should be itself")
	}
	if rev.Canonical() == rev {
		t.Error("canonical of (2→1) should be flipped")
	}
}

func TestFlowKeySamePortsDifferentIPs(t *testing.T) {
	a := FlowKey{SrcIP: [4]byte{10, 0, 0, 5}, DstIP: [4]byte{10, 0, 0, 3}, SrcPort: 80, DstPort: 80, Proto: 6}
	if a.Canonical().SrcIP != [4]byte{10, 0, 0, 3} {
		t.Error("canonical should order by IP first")
	}
	// Same IPs: order by port.
	b := FlowKey{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 1}, SrcPort: 9000, DstPort: 80, Proto: 6}
	if b.Canonical().SrcPort != 80 {
		t.Error("canonical should order by port when IPs equal")
	}
}

func TestBiHashSymmetric(t *testing.T) {
	p := pkt(1, 2, 1234, 443, netpkt.ProtoTCP, 100, 0)
	k := KeyOf(&p)
	if BiHashFold(k.Fold(), 0) != BiHashFold(k.Reverse().Fold(), 0) {
		t.Error("bi-hash not direction independent")
	}
	if BiHashFold(k.Fold(), 0) == BiHashFold(k.Fold(), 1) {
		t.Error("different seeds should (almost surely) differ")
	}
	if i := IndexFold(k.Fold(), 0, 1024); i < 0 || i >= 1024 {
		t.Error("IndexFold out of range")
	}
	if IndexFold(k.Fold(), 0, 0) != 0 {
		t.Error("IndexFold with size 0 should be 0")
	}
}

func TestFlowKeyBytesLayout(t *testing.T) {
	k := FlowKey{SrcIP: [4]byte{1, 2, 3, 4}, DstIP: [4]byte{5, 6, 7, 8}, SrcPort: 0x1234, DstPort: 0x5678, Proto: 17}
	b := k.Bytes()
	if b[0] != 1 || b[7] != 8 {
		t.Errorf("IP layout wrong: %v", b)
	}
	if b[8] != 0x12 || b[9] != 0x34 || b[10] != 0x56 || b[11] != 0x78 {
		t.Errorf("port layout wrong: %v", b)
	}
	if b[12] != 17 {
		t.Errorf("proto = %d", b[12])
	}
	if k.String() == "" {
		t.Error("empty String")
	}
}

func TestFlowStateVector(t *testing.T) {
	var s FlowState
	p1 := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 0)
	p2 := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 200, 10*time.Millisecond)
	p3 := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 300, 30*time.Millisecond)
	s.Add(&p1)
	s.Add(&p2)
	s.Add(&p3)
	v := s.Vector()
	if v[FLPktCount] != 3 {
		t.Errorf("count = %v", v[FLPktCount])
	}
	if v[FLTotalSize] != 600 {
		t.Errorf("total = %v", v[FLTotalSize])
	}
	if v[FLAvgSize] != 200 {
		t.Errorf("avg = %v", v[FLAvgSize])
	}
	if v[FLMinSize] != 100 || v[FLMaxSize] != 300 {
		t.Errorf("min/max = %v/%v", v[FLMinSize], v[FLMaxSize])
	}
	// Sizes 100,200,300: population variance = 6666.67.
	if math.Abs(v[FLVarSize]-6666.666) > 1 {
		t.Errorf("var = %v", v[FLVarSize])
	}
	if math.Abs(v[FLStdSize]-math.Sqrt(v[FLVarSize])) > 1e-9 {
		t.Errorf("std² != var")
	}
	// IPDs: 10ms, 20ms → avg 15ms.
	if math.Abs(v[FLAvgIPD]-0.015) > 1e-9 {
		t.Errorf("avg ipd = %v", v[FLAvgIPD])
	}
	if math.Abs(v[FLMinIPD]-0.010) > 1e-9 || math.Abs(v[FLMaxIPD]-0.020) > 1e-9 {
		t.Errorf("ipd min/max = %v/%v", v[FLMinIPD], v[FLMaxIPD])
	}
	if math.Abs(v[FLDuration]-0.030) > 1e-9 {
		t.Errorf("duration = %v", v[FLDuration])
	}
}

// TestFlowStateTraceTimeDomain pins the trace-time domain at pcap's
// extremes: FlowState keeps its timestamps as Unix nanoseconds, and on
// instants from 0 s to 2³²−1 s (with microsecond fractions) its IPDs,
// duration and IdleFor must equal the time.Time arithmetic on the same
// instants bit for bit.
func TestFlowStateTraceTimeDomain(t *testing.T) {
	const maxSec = 1<<32 - 1
	at := []time.Time{
		time.Unix(0, 0),
		time.Unix(0, 1000),
		time.Unix(0, 999999000),
		time.Unix(1, 500000000),
		time.Unix(maxSec-1, 999999000),
		time.Unix(maxSec, 0),
		time.Unix(maxSec, 1000),
		time.Unix(maxSec, 999999000),
	}
	var s FlowState
	var sum, sq float64
	minIPD, maxIPD := math.Inf(1), math.Inf(-1)
	for i, ts := range at {
		p := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 0)
		p.Timestamp = ts
		s.Add(&p)
		if i > 0 {
			ipd := ts.Sub(at[i-1]).Seconds()
			sum += ipd
			sq += ipd * ipd
			minIPD, maxIPD = math.Min(minIPD, ipd), math.Max(maxIPD, ipd)
		}
	}
	if s.IPDSum != sum || s.IPDSqSum != sq || s.IPDMin != minIPD || s.IPDMax != maxIPD {
		t.Errorf("IPD sum/sq/min/max = %v/%v/%v/%v, time.Time gives %v/%v/%v/%v",
			s.IPDSum, s.IPDSqSum, s.IPDMin, s.IPDMax, sum, sq, minIPD, maxIPD)
	}
	last := at[len(at)-1]
	if got, want := s.Vector()[FLDuration], last.Sub(at[0]).Seconds(); got != want {
		t.Errorf("duration = %v, time.Time gives %v", got, want)
	}
	timeouts := []time.Duration{0, time.Nanosecond, time.Microsecond, 5 * time.Second, last.Sub(at[0])}
	for _, now := range at {
		for _, d := range []time.Duration{0, time.Nanosecond, time.Microsecond, 5 * time.Second} {
			n := now.Add(d)
			for _, timeout := range timeouts {
				// A state whose last packet is each extreme instant.
				var one FlowState
				p := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 0)
				p.Timestamp = now
				one.Add(&p)
				if got, want := one.IdleFor(n.UnixNano(), timeout), n.Sub(now) > timeout; got != want {
					t.Errorf("IdleFor(%v, %v) after %v = %v, time.Time gives %v", n, timeout, now, got, want)
				}
			}
		}
		if got, want := s.IdleFor(now.UnixNano(), 5*time.Second), now.Sub(last) > 5*time.Second; got != want {
			t.Errorf("IdleFor(%v) = %v, time.Time gives %v", now, got, want)
		}
	}
}

func TestFlowStateSinglePacket(t *testing.T) {
	var s FlowState
	p := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 0)
	s.Add(&p)
	v := s.Vector()
	if v[FLPktCount] != 1 || v[FLAvgIPD] != 0 || v[FLDuration] != 0 {
		t.Errorf("single packet vector = %v", v)
	}
	if v[FLStdSize] != 0 {
		t.Errorf("single packet size std = %v", v[FLStdSize])
	}
}

func TestFlowStateEmptyVector(t *testing.T) {
	var s FlowState
	v := s.Vector()
	for i, x := range v {
		if x != 0 {
			t.Errorf("empty state feature %d = %v", i, x)
		}
	}
	if len(v) != FLDim {
		t.Errorf("dim = %d", len(v))
	}
}

func TestPLVector(t *testing.T) {
	p := pkt(1, 2, 1000, 443, netpkt.ProtoUDP, 120, 0)
	v := PLVector(&p)
	if len(v) != PLDim {
		t.Fatalf("PL dim = %d", len(v))
	}
	if v[PLDstPort] != 443 || v[PLProto] != 17 || v[PLLength] != 120 || v[PLTTL] != 64 {
		t.Errorf("PL vector = %v", v)
	}
}

func TestExtractorPacketCountEmission(t *testing.T) {
	e := NewExtractor(3, time.Minute)
	var got []Sample
	for i := 0; i < 3; i++ {
		p := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, time.Duration(i)*time.Millisecond)
		got = append(got, e.Feed(&p)...)
	}
	if len(got) != 1 {
		t.Fatalf("samples = %d, want 1", len(got))
	}
	if got[0].Reason != EmitPktCount {
		t.Errorf("reason = %v", got[0].Reason)
	}
	if got[0].FL[FLPktCount] != 3 {
		t.Errorf("count = %v", got[0].FL[FLPktCount])
	}
	if e.Active() != 0 {
		t.Errorf("active flows after emit = %d", e.Active())
	}
	if len(got[0].FirstPL) != PLDim {
		t.Errorf("FirstPL dim = %d", len(got[0].FirstPL))
	}
}

func TestExtractorBidirectionalAggregation(t *testing.T) {
	e := NewExtractor(4, time.Minute)
	// Two packets each direction: one bidirectional flow of 4 packets.
	ps := []netpkt.Packet{
		pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 0),
		pkt(2, 1, 80, 1000, netpkt.ProtoTCP, 200, time.Millisecond),
		pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 2*time.Millisecond),
		pkt(2, 1, 80, 1000, netpkt.ProtoTCP, 200, 3*time.Millisecond),
	}
	var got []Sample
	for i := range ps {
		got = append(got, e.Feed(&ps[i])...)
	}
	if len(got) != 1 {
		t.Fatalf("samples = %d, want 1 (bidirectional aggregation)", len(got))
	}
	if got[0].FL[FLPktCount] != 4 {
		t.Errorf("count = %v, want 4", got[0].FL[FLPktCount])
	}
}

func TestExtractorTimeout(t *testing.T) {
	e := NewExtractor(100, 50*time.Millisecond)
	p1 := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 0)
	e.Feed(&p1)
	// Unrelated packet 1s later triggers the timeout sweep.
	p2 := pkt(3, 4, 2000, 81, netpkt.ProtoTCP, 100, time.Second)
	got := e.Feed(&p2)
	if len(got) != 1 {
		t.Fatalf("samples = %d, want 1 timeout emission", len(got))
	}
	if got[0].Reason != EmitTimeout {
		t.Errorf("reason = %v", got[0].Reason)
	}
	if e.Active() != 1 { // only the new flow remains
		t.Errorf("active = %d", e.Active())
	}
}

func TestExtractorFlush(t *testing.T) {
	e := NewExtractor(100, time.Minute)
	p1 := pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, 0)
	p2 := pkt(5, 6, 1000, 80, netpkt.ProtoTCP, 100, 0)
	e.Feed(&p1)
	e.Feed(&p2)
	got := e.Flush()
	if len(got) != 2 {
		t.Fatalf("flush = %d samples, want 2", len(got))
	}
	for _, s := range got {
		if s.Reason != EmitFlush {
			t.Errorf("reason = %v", s.Reason)
		}
	}
	if e.Active() != 0 {
		t.Errorf("active after flush = %d", e.Active())
	}
}

func TestExtractAll(t *testing.T) {
	var ps []netpkt.Packet
	for i := 0; i < 10; i++ {
		ps = append(ps, pkt(1, 2, 1000, 80, netpkt.ProtoTCP, 100, time.Duration(i)*time.Millisecond))
	}
	got := ExtractAll(ps, 4, time.Minute)
	// 10 packets, threshold 4: two full emissions + flush of remaining 2.
	if len(got) != 3 {
		t.Fatalf("samples = %d, want 3", len(got))
	}
	if got[0].FL[FLPktCount] != 4 || got[1].FL[FLPktCount] != 4 || got[2].FL[FLPktCount] != 2 {
		t.Errorf("counts = %v, %v, %v", got[0].FL[FLPktCount], got[1].FL[FLPktCount], got[2].FL[FLPktCount])
	}
}

func TestExtractorDefaults(t *testing.T) {
	e := NewExtractor(0, 0)
	if e.N <= 0 || e.Timeout <= 0 {
		t.Errorf("defaults not applied: %+v", e)
	}
}

func TestEmitReasonString(t *testing.T) {
	for _, r := range []EmitReason{EmitPktCount, EmitTimeout, EmitFlush} {
		if r.String() == "" {
			t.Error("empty reason string")
		}
	}
}

func TestScalerRoundTrip(t *testing.T) {
	x := [][]float64{{0, 10}, {5, 20}, {10, 30}}
	s := FitScaler(x)
	got := s.Transform([]float64{5, 20})
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Errorf("Transform = %v", got)
	}
	inv := s.Inverse(got)
	if math.Abs(inv[0]-5) > 1e-9 || math.Abs(inv[1]-20) > 1e-9 {
		t.Errorf("Inverse = %v", inv)
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d", s.Dim())
	}
}

func TestScalerExtrapolates(t *testing.T) {
	s := FitScaler([][]float64{{0}, {10}})
	if got := s.Transform([]float64{20}); got[0] != 2 {
		t.Errorf("out-of-range value = %v, want 2 (not clamped)", got[0])
	}
}

func TestScalerConstantFeature(t *testing.T) {
	s := FitScaler([][]float64{{7, 1}, {7, 2}})
	got := s.Transform([]float64{7, 1.5})
	if got[0] != 0 {
		t.Errorf("constant feature scaled to %v, want 0", got[0])
	}
}

func TestScalerPanicsOnDimMismatch(t *testing.T) {
	s := FitScaler([][]float64{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Error("want panic on dim mismatch")
		}
	}()
	s.Transform([]float64{1})
}

func TestScalerTransformAll(t *testing.T) {
	s := FitScaler([][]float64{{0}, {10}})
	got := s.TransformAll([][]float64{{0}, {5}, {10}})
	if got[1][0] != 0.5 {
		t.Errorf("TransformAll = %v", got)
	}
}

func TestScalerEmptyFit(t *testing.T) {
	s := FitScaler(nil)
	if s.Dim() != 0 {
		t.Errorf("empty scaler dim = %d", s.Dim())
	}
}
