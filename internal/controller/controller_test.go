package controller

import (
	"sync"
	"testing"

	"iguard/internal/features"
	"iguard/internal/switchsim"
)

// fakeSwitch records controller-driven operations.
type fakeSwitch struct {
	mu        sync.Mutex
	installed map[features.FlowKey]bool
}

func newFakeSwitch() *fakeSwitch {
	return &fakeSwitch{installed: map[features.FlowKey]bool{}}
}

func (f *fakeSwitch) InstallBlacklist(key features.FlowKey, _ uint32) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.installed[key] = true
	return true
}

func (f *fakeSwitch) RemoveBlacklist(key features.FlowKey, _ uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.installed, key)
}

func key(n byte) features.FlowKey {
	return features.FlowKey{SrcIP: [4]byte{10, 0, 0, n}, DstIP: [4]byte{23, 1, 0, 1}, SrcPort: 1000, DstPort: 443, Proto: 6}
}

func TestMaliciousDigestInstallsRule(t *testing.T) {
	fs := newFakeSwitch()
	c := New(fs, 10, FIFO)
	c.OnDigest(switchsim.Digest{Key: key(1), Label: 1})
	if !fs.installed[key(1).Canonical()] {
		t.Error("blacklist rule not installed")
	}
	s := c.Stats()
	if s.DigestsReceived != 1 || s.RulesInstalled != 1 || s.StorageCleared != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesReceived != switchsim.DigestBytes {
		t.Errorf("bytes = %d", s.BytesReceived)
	}
}

func TestBenignDigestOnlyClears(t *testing.T) {
	fs := newFakeSwitch()
	c := New(fs, 10, FIFO)
	c.OnDigest(switchsim.Digest{Key: key(2), Label: 0})
	if len(fs.installed) != 0 {
		t.Error("benign digest installed a rule")
	}
	// The data plane clears the flow's storage itself; the controller
	// only counts the clear.
	if s := c.Stats(); s.StorageCleared != 1 || s.DigestsReceived != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFIFOEviction(t *testing.T) {
	fs := newFakeSwitch()
	c := New(fs, 2, FIFO)
	c.OnDigest(switchsim.Digest{Key: key(1), Label: 1})
	c.OnDigest(switchsim.Digest{Key: key(2), Label: 1})
	// Re-digest key(1): FIFO does not refresh its position.
	c.OnDigest(switchsim.Digest{Key: key(1), Label: 1})
	c.OnDigest(switchsim.Digest{Key: key(3), Label: 1})
	if fs.installed[key(1).Canonical()] {
		t.Error("FIFO should evict key(1) first")
	}
	if !fs.installed[key(2).Canonical()] || !fs.installed[key(3).Canonical()] {
		t.Error("wrong survivors")
	}
	if c.BlacklistLen() != 2 {
		t.Errorf("len = %d", c.BlacklistLen())
	}
	if got := c.Stats().RulesEvicted; got != 1 {
		t.Errorf("evicted = %d", got)
	}
}

func TestLRUEvictionRefreshesOnDigest(t *testing.T) {
	fs := newFakeSwitch()
	c := New(fs, 2, LRU)
	c.OnDigest(switchsim.Digest{Key: key(1), Label: 1})
	c.OnDigest(switchsim.Digest{Key: key(2), Label: 1})
	// Refresh key(1): now key(2) is least recent.
	c.OnDigest(switchsim.Digest{Key: key(1), Label: 1})
	c.OnDigest(switchsim.Digest{Key: key(3), Label: 1})
	if fs.installed[key(2).Canonical()] {
		t.Error("LRU should evict key(2)")
	}
	if !fs.installed[key(1).Canonical()] {
		t.Error("refreshed key(1) evicted")
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(newFakeSwitch(), 0, FIFO)
	if c.capacity <= 0 {
		t.Error("default capacity not applied")
	}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || LRU.String() != "lru" {
		t.Error("policy strings")
	}
}

func TestEndToEndWithRealSwitch(t *testing.T) {
	sw := switchsim.New(switchsim.Config{Slots: 32, PktThreshold: 4, BlacklistCapacity: 16})
	c := New(sw, 16, LRU)
	c.OnDigest(switchsim.Digest{Key: key(9), Label: 1})
	if sw.BlacklistLen() != 1 {
		t.Errorf("switch blacklist = %d", sw.BlacklistLen())
	}
}

func TestConcurrentDigests(t *testing.T) {
	fs := newFakeSwitch()
	c := New(fs, 64, LRU)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base byte) {
			defer wg.Done()
			for j := 0; j < 32; j++ {
				c.OnDigest(switchsim.Digest{Key: key(base*32 + byte(j)), Label: j % 2})
			}
		}(byte(i))
	}
	wg.Wait()
	if got := c.Stats().DigestsReceived; got != 256 {
		t.Errorf("digests = %d", got)
	}
}

// TestConcurrentMixedOps hammers every exported method from competing
// goroutines; run with -race to validate the locking contract.
func TestConcurrentMixedOps(t *testing.T) {
	fs := newFakeSwitch()
	c := New(fs, 32, LRU)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func(base byte) {
			defer wg.Done()
			for j := 0; j < 64; j++ {
				c.OnDigest(switchsim.Digest{Key: key(base*64 + byte(j)), Label: 1})
			}
		}(byte(i))
		go func(base byte) {
			defer wg.Done()
			for j := 0; j < 64; j++ {
				c.Install(key(base*64 + byte(j)))
			}
		}(byte(i))
		go func() {
			defer wg.Done()
			for j := 0; j < 64; j++ {
				_ = c.Stats()
				_ = c.BlacklistLen()
			}
		}()
	}
	wg.Wait()
	if got := c.Stats().DigestsReceived; got != 256 {
		t.Errorf("digests = %d", got)
	}
	if got := c.BlacklistLen(); got != 32 {
		t.Errorf("blacklist = %d, want capacity 32", got)
	}
}

func TestFlushRemovesAllEntries(t *testing.T) {
	fs := newFakeSwitch()
	c := New(fs, 10, LRU)
	for i := byte(1); i <= 5; i++ {
		c.OnDigest(switchsim.Digest{Key: key(i), Label: 1})
	}
	if c.BlacklistLen() != 5 || len(fs.installed) != 5 {
		t.Fatalf("setup: tracked=%d installed=%d", c.BlacklistLen(), len(fs.installed))
	}
	if n := c.Flush(); n != 5 {
		t.Fatalf("Flush removed %d entries, want 5", n)
	}
	if c.BlacklistLen() != 0 || len(fs.installed) != 0 {
		t.Fatalf("after flush: tracked=%d installed=%d", c.BlacklistLen(), len(fs.installed))
	}
	if got := c.Stats().RulesEvicted; got != 5 {
		t.Fatalf("RulesEvicted=%d want 5", got)
	}
	// Idempotent on empty, and the table keeps working afterwards.
	if n := c.Flush(); n != 0 {
		t.Fatalf("second Flush removed %d entries, want 0", n)
	}
	c.OnDigest(switchsim.Digest{Key: key(9), Label: 1})
	if c.BlacklistLen() != 1 || !fs.installed[key(9).Canonical()] {
		t.Fatal("controller unusable after Flush")
	}
}
