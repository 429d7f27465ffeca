package controller

import (
	"fmt"
	"testing"

	"iguard/internal/features"
	"iguard/internal/switchsim"
)

// churnKey returns the i-th of a family of distinct canonical keys.
func churnKey(i int) features.FlowKey {
	return features.FlowKey{
		SrcIP: [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}, DstIP: [4]byte{203, 0, 113, 7},
		SrcPort: 40000, DstPort: 443, Proto: 6,
	}
}

// fullPlane returns a controller driving a real switch whose blacklist
// holds capacity entries, plus a cycle of 2×capacity keys. Digesting
// the keys in cycle order from the first, every one is absent and
// every install evicts exactly one entry; the whole cycle has already
// been installed once, so both tables are at their high-water mark.
func fullPlane(tb testing.TB, capacity int, policy EvictionPolicy) (c *Controller, sw *switchsim.Switch, keys []features.FlowKey) {
	tb.Helper()
	sw = switchsim.New(switchsim.Config{Slots: 1024, BlacklistCapacity: capacity})
	c = New(sw, capacity, policy)
	sw.SetSink(c)
	keys = make([]features.FlowKey, 2*capacity)
	for i := range keys {
		keys[i] = churnKey(i)
	}
	for _, k := range keys {
		c.OnDigest(switchsim.Digest{Key: k, Label: 1})
	}
	if c.BlacklistLen() != capacity || sw.BlacklistLen() != capacity {
		tb.Fatalf("warm-up left %d tracked, %d installed; want %d", c.BlacklistLen(), sw.BlacklistLen(), capacity)
	}
	return c, sw, keys
}

// TestOnDigestAllocationFree pins the control plane's steady state at
// zero allocations: with the blacklist full, each malicious digest of a
// new flow installs one rule and evicts one, under both policies, as do
// apply-path Installs; a Remove followed by the re-Install of the same
// key reuses the freed storage.
func TestOnDigestAllocationFree(t *testing.T) {
	const capacity = 64
	for _, policy := range []EvictionPolicy{LRU, FIFO} {
		t.Run(fmt.Sprintf("%v/OnDigest", policy), func(t *testing.T) {
			c, sw, keys := fullPlane(t, capacity, policy)
			before, i := c.Stats(), 0
			if n := testing.AllocsPerRun(500, func() {
				c.OnDigest(switchsim.Digest{Key: keys[i%len(keys)], Label: 1})
				i++
			}); n != 0 {
				t.Errorf("OnDigest allocs = %v, want 0", n)
			}
			st := c.Stats()
			if installs, evictions := st.RulesInstalled-before.RulesInstalled, st.RulesEvicted-before.RulesEvicted; installs != i || evictions != i {
				t.Fatalf("%d digests made %d installs and %d evictions, want one of each per digest", i, installs, evictions)
			}
			if sw.BlacklistLen() != capacity {
				t.Fatalf("switch blacklist %d, want %d", sw.BlacklistLen(), capacity)
			}
		})
		t.Run(fmt.Sprintf("%v/Install", policy), func(t *testing.T) {
			c, _, keys := fullPlane(t, capacity, policy)
			i := 0
			if n := testing.AllocsPerRun(500, func() {
				if !c.Install(keys[i%len(keys)]) {
					t.Fatal("Install of an absent key reported resident")
				}
				i++
			}); n != 0 {
				t.Errorf("Install allocs = %v, want 0", n)
			}
		})
		t.Run(fmt.Sprintf("%v/Remove", policy), func(t *testing.T) {
			c, _, keys := fullPlane(t, capacity, policy)
			resident := keys[len(keys)-1]
			if n := testing.AllocsPerRun(500, func() {
				if !c.Remove(resident) || !c.Install(resident) {
					t.Fatal("Remove/Install cycle of a resident key failed")
				}
			}); n != 0 {
				t.Errorf("Remove allocs = %v, want 0", n)
			}
		})
	}
}

// BenchmarkControllerChurn measures the blacklist plane at capacity:
// each op is one malicious digest of a new flow through an LRU
// controller and a real switch, so it installs one rule and evicts
// one (make bench-ctrl).
func BenchmarkControllerChurn(b *testing.B) {
	c, _, keys := fullPlane(b, 8192, LRU)
	i := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.OnDigest(switchsim.Digest{Key: keys[i], Label: 1})
		if i++; i == len(keys) {
			i = 0
		}
	}
}
