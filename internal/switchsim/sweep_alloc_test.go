package switchsim_test

import (
	"testing"
	"time"

	"iguard/internal/controller"
	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
	"iguard/internal/switchsim"
)

// TestSweepTimeoutsAllocationFree pins the release path at zero
// allocations in steady state: each cycle admits a few hundred new
// flows and lets a timeout sweep release them all, and an LRU
// controller at capacity installs one blacklist rule and evicts one
// for each of their (malicious) digests.
func TestSweepTimeoutsAllocationFree(t *testing.T) {
	const (
		capacity = 64
		perCycle = 265
		family   = 4 * perCycle
	)
	fl := rules.Compile(&rules.RuleSet{Dim: features.FLDim, DefaultLabel: 1},
		rules.NewQuantizer(make([]float64, features.FLDim), make([]float64, features.FLDim), 8))
	timeout := time.Second
	sw := switchsim.New(switchsim.Config{
		Slots:             4096,
		PktThreshold:      8,
		Timeout:           timeout,
		FLRules:           fl, // an empty whitelist: every flow is malicious
		BlacklistCapacity: capacity,
	})
	ctrl := controller.New(sw, capacity, controller.LRU)
	sw.SetSink(ctrl)

	pkts := make([]netpkt.Packet, family)
	for i := range pkts {
		pkts[i] = netpkt.Packet{
			SrcIP: [4]byte{10, 9, byte(i >> 8), byte(i)}, DstIP: [4]byte{192, 0, 2, 1},
			SrcPort: 40000, DstPort: 443, Proto: netpkt.ProtoTCP, TTL: 64, Length: 60,
		}
	}
	now := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	next := 0
	cycle := func() {
		for j := 0; j < perCycle; j++ {
			p := &pkts[next]
			next = (next + 1) % family
			p.Timestamp = now
			sw.ProcessPacket(p)
		}
		now = now.Add(2 * timeout)
		sw.SweepTimeouts(now)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	before := ctrl.Stats()
	const runs = 20
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Errorf("admit-and-sweep cycle allocs = %v, want 0", n)
	}
	st := ctrl.Stats()
	if got := st.RulesInstalled - before.RulesInstalled; got != (runs+1)*perCycle || st.RulesEvicted-before.RulesEvicted != got {
		t.Fatalf("%d cycles of %d flows made %d installs and %d evictions, want one of each per flow",
			runs+1, perCycle, got, st.RulesEvicted-before.RulesEvicted)
	}
}
