package switchsim

import (
	"fmt"
	"testing"
	"time"

	"iguard/internal/features"
	"iguard/internal/mathx"
	"iguard/internal/netpkt"
)

// mixedTrace builds a deterministic trace that exercises every packet
// path: a handful of flows (port-benign and port-malicious, small and
// large packets) interleaved over a tiny slot table, with idle gaps
// long enough to trip the timeout arms mid-trace.
func mixedTrace(n int) []netpkt.Packet {
	r := mathx.NewRand(0x8a7c)
	pkts := make([]netpkt.Packet, n)
	at := time.Duration(0)
	for i := range pkts {
		flow := r.Intn(12)
		port := uint16(443)
		if flow%3 == 2 {
			port = 9999 // outside the PL whitelist's dst-port range
		}
		length := 100
		if flow%4 == 3 {
			length = 1400 // above the FL whitelist's avg-size ceiling
		}
		p := mkPkt(byte(flow), uint16(1000+flow), length, at)
		p.DstPort = port
		pkts[i] = p
		at += time.Duration(1+r.Intn(3)) * time.Millisecond
		if r.Intn(40) == 0 {
			at += 200 * time.Millisecond // beyond the 50ms test timeout
		}
	}
	return pkts
}

// digestRecorder captures the digest stream so the differential test
// can compare control-plane output, not just per-packet decisions.
type digestRecorder struct{ digests []Digest }

func (d *digestRecorder) OnDigest(dg Digest) { d.digests = append(d.digests, dg) }

func batchTestSwitch(sink DigestSink) *Switch {
	return New(Config{
		Slots:         4, // tiny: forces orange collisions
		PktThreshold:  3,
		Timeout:       50 * time.Millisecond,
		FLRules:       flRulesAllowSmall(),
		PLRules:       plRulesAllowPort(),
		DropMalicious: true,
		Sink:          sink,
		SweepInterval: 100 * time.Millisecond,
	})
}

// keysAndFolds derives each packet's canonical flow key and fold the
// way every ProcessBatch caller does (features.CanonicalFoldOf).
func keysAndFolds(pkts []netpkt.Packet) ([]features.FlowKey, []uint32) {
	keys := make([]features.FlowKey, len(pkts))
	folds := make([]uint32, len(pkts))
	for i := range pkts {
		keys[i], folds[i] = features.CanonicalFoldOf(&pkts[i])
	}
	return keys, folds
}

// TestProcessBatchMatchesProcessPacket is the batch equivalence pin:
// at every batch size, with keys and folds precomputed by the caller
// (the serve hand-off shape, the only one ProcessBatch takes),
// ProcessBatch must produce byte-identical decisions, counters, and
// digest streams to running ProcessPacket over the same trace.
func TestProcessBatchMatchesProcessPacket(t *testing.T) {
	trace := mixedTrace(2000)
	keys, folds := keysAndFolds(trace)

	var refSink digestRecorder
	ref := batchTestSwitch(&refSink)
	want := make([]Decision, len(trace))
	for i := range trace {
		want[i] = ref.ProcessPacket(&trace[i])
	}
	if ref.Counters.PathCounts[PathOrange] == 0 || ref.Counters.Sweeps == 0 {
		t.Fatalf("trace too tame (counters %+v); the equivalence check is vacuous", ref.Counters)
	}

	for _, batch := range []int{1, 7, 64, 1024} {
		// mode=folds: the caller supplies keys and folds.
		t.Run(fmt.Sprintf("batch=%d/mode=folds", batch), func(t *testing.T) {
			var sink digestRecorder
			sw := batchTestSwitch(&sink)
			got := make([]Decision, len(trace))
			for off := 0; off < len(trace); off += batch {
				end := off + batch
				if end > len(trace) {
					end = len(trace)
				}
				sw.ProcessBatch(trace[off:end], keys[off:end], folds[off:end], got[off:end])
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("packet %d: batch decision %+v, single %+v", i, got[i], want[i])
				}
			}
			if sw.Counters != ref.Counters {
				t.Errorf("counters diverge: batch %+v, single %+v", sw.Counters, ref.Counters)
			}
			if len(sink.digests) != len(refSink.digests) {
				t.Fatalf("digest count %d, want %d", len(sink.digests), len(refSink.digests))
			}
			for i := range sink.digests {
				if sink.digests[i] != refSink.digests[i] {
					t.Fatalf("digest %d: batch %+v, single %+v", i, sink.digests[i], refSink.digests[i])
				}
			}
		})
	}
}

// TestProcessBatchNoPLRules covers a switch with no PL whitelist: every
// PL verdict is the forward-unchecked default, and the batch walk must
// still match the per-packet pipeline.
func TestProcessBatchNoPLRules(t *testing.T) {
	trace := mixedTrace(600)
	keys, folds := keysAndFolds(trace)
	mk := func() *Switch {
		return New(Config{
			Slots:         4,
			PktThreshold:  3,
			Timeout:       50 * time.Millisecond,
			FLRules:       flRulesAllowSmall(),
			DropMalicious: true,
		})
	}
	ref := mk()
	want := make([]Decision, len(trace))
	for i := range trace {
		want[i] = ref.ProcessPacket(&trace[i])
	}
	sw := mk()
	got := make([]Decision, len(trace))
	for off := 0; off < len(trace); off += 7 {
		end := off + 7
		if end > len(trace) {
			end = len(trace)
		}
		sw.ProcessBatch(trace[off:end], keys[off:end], folds[off:end], got[off:end])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d: batch decision %+v, single %+v", i, got[i], want[i])
		}
	}
	if sw.Counters != ref.Counters {
		t.Errorf("counters diverge: batch %+v, single %+v", sw.Counters, ref.Counters)
	}
}

// TestProcessBatchAllocationFree pins the batch hot path at zero
// allocations in steady state.
func TestProcessBatchAllocationFree(t *testing.T) {
	sw := newTestSwitch(2, time.Hour) // blue/purple cycling, nil sink
	const n = 64
	pkts := make([]netpkt.Packet, n)
	for i := range pkts {
		pkts[i] = mkPkt(byte(i%4), uint16(2000+i%4), 100, time.Duration(i)*time.Millisecond)
	}
	keys, folds := keysAndFolds(pkts)
	out := make([]Decision, n)
	sw.ProcessBatch(pkts, keys, folds, out) // admit the four flows
	if allocs := testing.AllocsPerRun(200, func() {
		sw.ProcessBatch(pkts, keys, folds, out)
	}); allocs != 0 {
		t.Errorf("ProcessBatch allocs/op = %v, want 0", allocs)
	}
}

// TestProcessBatchGrowthAllocationFree pins that the batch pass keeps
// no per-batch scratch: a batch larger than any the switch has seen
// must not allocate either. Each measured call is one packet longer
// than the last, over a trace that takes the PL-matched paths (brown,
// orange and blue with a PL whitelist installed).
func TestProcessBatchGrowthAllocationFree(t *testing.T) {
	sw := batchTestSwitch(nil)
	trace := mixedTrace(2000)
	keys, folds := keysAndFolds(trace)
	out := make([]Decision, len(trace))
	sw.ProcessBatch(trace[:8], keys[:8], folds[:8], out[:8])
	off, size := 8, 8
	if allocs := testing.AllocsPerRun(40, func() {
		size++
		end := off + size
		sw.ProcessBatch(trace[off:end], keys[off:end], folds[off:end], out[off:end])
		off = end
	}); allocs != 0 {
		t.Errorf("ProcessBatch allocs/op on growing batches = %v, want 0", allocs)
	}
	if sw.Counters.PathCounts[PathBrown] == 0 || sw.Counters.PathCounts[PathOrange] == 0 {
		t.Fatalf("trace missed the PL-matched paths (counters %+v); the assertion is vacuous", sw.Counters)
	}
}
