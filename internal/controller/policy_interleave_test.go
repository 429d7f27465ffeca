package controller

import (
	"testing"

	"iguard/internal/features"
	"iguard/internal/switchsim"
)

// TestPolicyInterleavings drives one scripted interleaving of digest
// installs, federation applies (Install/Remove), and Flush through both
// eviction policies, pinning the exact eviction order each produces.
// The script is chosen so every divergence point between LRU and FIFO
// is exercised: a digest for a resident key and a re-Install of one
// (each a recency bump vs a no-op), and evictions triggered from both
// the digest path and the apply path.
func TestPolicyInterleavings(t *testing.T) {
	type step struct {
		digest  byte // OnDigest(key(n), malicious) when nonzero
		install byte // federation apply path
		remove  byte
	}
	script := []step{
		{digest: 1}, {digest: 2}, {digest: 3}, // fill to capacity (3)
		{digest: 1},  // resident: LRU refreshes k1; FIFO ignores
		{digest: 4},  // evicts: LRU k2, FIFO k1
		{install: 5}, // apply-path install evicts: LRU k3, FIFO k2
		{install: 4}, // resident: LRU recency bump, FIFO no-op
		{digest: 6},  // evicts: LRU k1, FIFO k3
		{remove: 5},  // explicit withdrawal on both
		{digest: 4},  // resident refresh (LRU) / no-op (FIFO)
	}
	cases := []struct {
		policy      EvictionPolicy
		wantEvicted []byte // in order
		wantFinal   []byte // resident after the script
	}{
		{LRU, []byte{2, 3, 1}, []byte{4, 6}},
		{FIFO, []byte{1, 2, 3}, []byte{4, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.policy.String(), func(t *testing.T) {
			fs := newFakeSwitch()
			c := New(fs, 3, tc.policy)
			var evictions []features.FlowKey
			var observedInstalls int
			c.SetObserver(func(ev Event) {
				switch ev.Op {
				case OpEvict:
					evictions = append(evictions, ev.Key)
				case OpInstall:
					observedInstalls++
				}
			})
			for _, s := range script {
				switch {
				case s.digest != 0:
					c.OnDigest(switchsim.Digest{Key: key(s.digest), Label: 1})
				case s.install != 0:
					c.Install(key(s.install))
				case s.remove != 0:
					if !c.Remove(key(s.remove)) {
						t.Fatalf("Remove(key(%d)) found nothing", s.remove)
					}
				}
			}

			if len(evictions) != len(tc.wantEvicted) {
				t.Fatalf("%d evictions %v, want %d", len(evictions), evictions, len(tc.wantEvicted))
			}
			for i, want := range tc.wantEvicted {
				if evictions[i] != key(want).Canonical() {
					t.Errorf("eviction %d = %v, want key(%d)", i, evictions[i], want)
				}
			}
			if got := c.BlacklistLen(); got != len(tc.wantFinal) {
				t.Fatalf("resident %d entries, want %d", got, len(tc.wantFinal))
			}
			for _, want := range tc.wantFinal {
				if !fs.installed[key(want).Canonical()] {
					t.Errorf("key(%d) missing from data plane", want)
				}
			}
			for _, gone := range tc.wantEvicted {
				if fs.installed[key(gone).Canonical()] {
					t.Errorf("evicted key(%d) still in data plane", gone)
				}
			}

			// Digest installs announce themselves (5 of them: k1,k2,k3,
			// k4,k6); apply-path installs stay silent — the loop-free
			// property federation relies on.
			if observedInstalls != 5 {
				t.Errorf("observer saw %d installs, want 5 (apply-path installs must stay silent)", observedInstalls)
			}
			st := c.Stats()
			if st.RulesInstalled != 6 { // 5 digest + 1 apply (k5)
				t.Errorf("RulesInstalled=%d want 6", st.RulesInstalled)
			}
			if st.RulesEvicted != 3 {
				t.Errorf("RulesEvicted=%d want 3", st.RulesEvicted)
			}
			if st.RulesRemoved != 1 {
				t.Errorf("RulesRemoved=%d want 1", st.RulesRemoved)
			}

			// Flush wipes the remainder, counts them as evictions, and
			// fires no observer events (it is an apply path too).
			evBefore := len(evictions)
			if n := c.Flush(); n != len(tc.wantFinal) {
				t.Fatalf("Flush removed %d, want %d", n, len(tc.wantFinal))
			}
			if len(evictions) != evBefore {
				t.Errorf("Flush fired %d observer events, want 0", len(evictions)-evBefore)
			}
			if c.BlacklistLen() != 0 || len(fs.installed) != 0 {
				t.Errorf("entries survived Flush: len=%d dataplane=%d", c.BlacklistLen(), len(fs.installed))
			}
			if got := c.Stats().RulesEvicted; got != 3+len(tc.wantFinal) {
				t.Errorf("RulesEvicted=%d after Flush, want %d", got, 3+len(tc.wantFinal))
			}
		})
	}
}

// TestLRURefreshAcrossFlush pins that Flush resets recency state: a
// digest for a flushed key installs it anew instead of refreshing a
// freed slab entry, and recency works normally afterwards.
func TestLRURefreshAcrossFlush(t *testing.T) {
	fs := newFakeSwitch()
	c := New(fs, 2, LRU)
	c.OnDigest(switchsim.Digest{Key: key(1), Label: 1})
	c.OnDigest(switchsim.Digest{Key: key(2), Label: 1})
	if n := c.Flush(); n != 2 {
		t.Fatalf("Flush removed %d, want 2", n)
	}
	c.OnDigest(switchsim.Digest{Key: key(1), Label: 1})
	if got := c.BlacklistLen(); got != 1 || !fs.installed[key(1).Canonical()] {
		t.Fatalf("BlacklistLen=%d, key(1) installed=%v after a post-flush digest; want 1, true", got, fs.installed[key(1).Canonical()])
	}
	// The table works normally afterwards: key(1) is refreshed after
	// key(3) arrives, so key(3) is the LRU victim of key(4).
	c.OnDigest(switchsim.Digest{Key: key(3), Label: 1})
	c.OnDigest(switchsim.Digest{Key: key(1), Label: 1})
	c.OnDigest(switchsim.Digest{Key: key(4), Label: 1})
	if fs.installed[key(3).Canonical()] {
		t.Error("key(3) should be the LRU victim after the post-flush refill")
	}
	if !fs.installed[key(1).Canonical()] || !fs.installed[key(4).Canonical()] {
		t.Error("wrong survivors after post-flush refill")
	}
}
