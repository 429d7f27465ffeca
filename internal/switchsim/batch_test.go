package switchsim

import (
	"fmt"
	"slices"
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
	})
}

// sweepPoints marks the packets a timeout sweep runs before, on serve's
// SweepEvery cadence: the clock starts at the first packet, and a sweep
// at trace[i]'s instant precedes trace[i] once the trace has advanced
// by every since the last sweep.
func sweepPoints(trace []netpkt.Packet, every time.Duration) []bool {
	due := make([]bool, len(trace))
	for i, last := 1, 0; i < len(trace); i++ {
		if trace[i].Timestamp.Sub(trace[last].Timestamp) >= every {
			due[i], last = true, i
		}
	}
	return due
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
	due := sweepPoints(trace, 100*time.Millisecond)
	want := make([]Decision, len(trace))
	for i := range trace {
		if due[i] {
			ref.SweepTimeouts(trace[i].Timestamp)
		}
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
			// A sweep point ends the batch before it, as a serve tick
			// flushes a lane's pending batch.
			for off := 0; off < len(trace); {
				if due[off] {
					sw.SweepTimeouts(trace[off].Timestamp)
				}
				end := off + 1
				for end < len(trace) && end-off < batch && !due[end] {
					end++
				}
				sw.ProcessBatch(trace[off:end], keys[off:end], folds[off:end], got[off:end])
				off = end
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
// orange and blue with a PL whitelist installed), and each is preceded
// by a timeout sweep at its first packet's instant, as serve's ticks
// interleave with batches.
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
		sw.SweepTimeouts(trace[off].Timestamp)
		sw.ProcessBatch(trace[off:end], keys[off:end], folds[off:end], out[off:end])
		off = end
	}); allocs != 0 {
		t.Errorf("ProcessBatch allocs/op on growing batches = %v, want 0", allocs)
	}
	if sw.Counters.PathCounts[PathBrown] == 0 || sw.Counters.PathCounts[PathOrange] == 0 || sw.Counters.SweepReleases == 0 {
		t.Fatalf("trace missed the PL-matched paths or sweep releases (counters %+v); the assertion is vacuous", sw.Counters)
	}
}

// TestProcessBatchOverwritesStaleDecisions is the stale-field guard:
// ProcessBatch writes each decision into out[i] in place, so a path
// that leaves a field unwritten would leak whatever out held before.
// Each case drives a one-slot-per-table switch into one arm of one
// path and ends on the packet that takes it; every packet of the
// script must decide the same through ProcessBatch, into an out slice
// pre-filled with non-zero garbage, as through ProcessPacket. The
// benign flavour keeps its flows whitelisted, the malicious one fails
// both whitelists, so Predicted and Dropped take both values. A
// zero-filled out cannot catch an unwritten field that should be zero,
// and the BatchSize 1 reference runs the same code, so neither would.
func TestProcessBatchOverwritesStaleDecisions(t *testing.T) {
	garbage := Decision{Path: Path(99), Predicted: 7, Dropped: true, Recirculated: true}
	const ms = time.Millisecond
	type step struct {
		flow byte
		at   time.Duration
	}
	cases := []struct {
		name      string
		blacklist bool // blacklist the script's first flow before it runs
		script    []step
		// arm reports whether the script's last packet took the arm the
		// case is named for, from its decision and the counters it
		// moved on the reference switch.
		arm func(d Decision, delta Counters) bool
	}{
		{"red", true, []step{{1, 0}},
			func(d Decision, c Counters) bool { return c.PathCounts[PathRed] == 1 }},
		{"brown/admit", false, []step{{1, 0}},
			func(d Decision, c Counters) bool { return c.PathCounts[PathBrown] == 1 }},
		{"brown/resident", false, []step{{1, 0}, {1, ms}},
			func(d Decision, c Counters) bool { return c.PathCounts[PathBrown] == 1 }},
		{"blue/threshold", false, []step{{1, 0}, {1, ms}, {1, 2 * ms}},
			func(d Decision, c Counters) bool { return c.PathCounts[PathBlue] == 1 && c.Digests == 1 }},
		{"blue/timeout", false, []step{{1, 0}, {1, ms}, {1, 200 * ms}},
			func(d Decision, c Counters) bool { return c.PathCounts[PathBlue] == 1 && c.Digests == 1 }},
		{"purple", false, []step{{1, 0}, {1, ms}, {1, 2 * ms}, {1, 3 * ms}},
			func(d Decision, c Counters) bool { return c.PathCounts[PathPurple] == 1 }},
		{"purple/label-timeout", false, []step{{1, 0}, {1, ms}, {1, 2 * ms}, {1, 200 * ms}},
			func(d Decision, c Counters) bool {
				return c.PathCounts[PathBrown] == 1 && c.PathCounts[PathPurple] == 0
			}},
		{"orange/timed-out-victim", false, []step{{1, 0}, {2, ms}, {3, 200 * ms}},
			func(d Decision, c Counters) bool { return c.PathCounts[PathOrange] == 1 && c.Digests == 1 }},
		{"orange/classified-victim", false, []step{{1, 0}, {1, ms}, {1, 2 * ms}, {2, 3 * ms}, {3, 4 * ms}},
			func(d Decision, c Counters) bool {
				return c.PathCounts[PathOrange] == 1 && c.PathCounts[PathGreen] == 1 && c.Digests == 0
			}},
		{"orange/hard-collision", false, []step{{1, 0}, {2, ms}, {3, 2 * ms}},
			func(d Decision, c Counters) bool { return c.PathCounts[PathOrange] == 1 && c.HardCollisions == 1 }},
	}
	for _, malicious := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/malicious=%v", tc.name, malicious), func(t *testing.T) {
				pkts := make([]netpkt.Packet, len(tc.script))
				for i, s := range tc.script {
					pkts[i] = mkPkt(s.flow, 1000+uint16(s.flow), 100, s.at)
					if malicious {
						pkts[i].Length = 1400
						pkts[i].DstPort = 9999
					}
				}
				keys, folds := keysAndFolds(pkts)
				mk := func(sink DigestSink) *Switch {
					sw := New(Config{
						Slots:         1, // every flow shares both candidate slots
						PktThreshold:  3,
						Timeout:       50 * ms,
						FLRules:       flRulesAllowSmall(),
						PLRules:       plRulesAllowPort(),
						DropMalicious: true,
					})
					sw.SetSink(sink)
					if tc.blacklist {
						sw.InstallBlacklist(canon(features.KeyOf(&pkts[0])))
					}
					return sw
				}

				refDigests := &digestRecorder{}
				ref := mk(refDigests)
				want := make([]Decision, len(pkts))
				var before Counters
				for i := range pkts {
					before = ref.Counters
					want[i] = ref.ProcessPacket(&pkts[i])
				}
				delta := ref.Counters
				for i := range delta.PathCounts {
					delta.PathCounts[i] -= before.PathCounts[i]
				}
				delta.Digests -= before.Digests
				delta.HardCollisions -= before.HardCollisions
				if last := want[len(want)-1]; !tc.arm(last, delta) {
					t.Fatalf("script missed its arm: last decision %+v, counter delta %+v", last, delta)
				}

				batchDigests := &digestRecorder{}
				sw := mk(batchDigests)
				got := make([]Decision, len(pkts))
				for i := range got {
					got[i] = garbage
				}
				// One packet per call, as the arm's packet must decide
				// into a slot that already holds garbage.
				for i := range pkts {
					sw.ProcessBatch(pkts[i:i+1], keys[i:i+1], folds[i:i+1], got[i:i+1])
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("packet %d: batch decision %+v, single %+v", i, got[i], want[i])
					}
				}
				if sw.Counters != ref.Counters {
					t.Errorf("counters diverge: batch %+v, single %+v", sw.Counters, ref.Counters)
				}
				if !slices.Equal(batchDigests.digests, refDigests.digests) {
					t.Errorf("digests diverge: batch %+v, single %+v", batchDigests.digests, refDigests.digests)
				}
			})
		}
	}
}
