package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"iguard/internal/controller"
	"iguard/internal/features"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

// TestApplyInstallBlocksFlow pins the federation apply path end to
// end: an externally applied install lands on the key's owning shard,
// and every subsequent packet of that flow takes the red path and is
// dropped — exactly as if this switch's own controller had flagged it.
func TestApplyInstallBlocksFlow(t *testing.T) {
	trace := traffic.GenerateBenign(21, 30)
	target, _ := features.CanonicalFoldOf(&trace.Packets[0])

	rec := newPerFlowRecorder(4)
	srv, err := New(Config{
		Shards:     4,
		NewShard:   testShardFactory(acceptAllFL(), 8, time.Hour),
		OnDecision: rec.onDecision,
	})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := srv.ApplyInstall(target)
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("first ApplyInstall reported applied=false")
	}
	// Idempotent: re-applying the same propagated entry is a no-op.
	if again, err := srv.ApplyInstall(target); err != nil || again {
		t.Fatalf("duplicate ApplyInstall: applied=%v err=%v, want false <nil>", again, err)
	}
	if _, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	flows := rec.merge(t)
	recs, ok := flows[target]
	if !ok {
		t.Fatalf("target flow %v not observed", target)
	}
	for i, r := range recs {
		if r.Path != switchsim.PathRed || !r.Dropped {
			t.Fatalf("packet %d of blacklisted flow: path=%v dropped=%v, want red+dropped", i, r.Path, r.Dropped)
		}
	}
	// Other flows are untouched by the foreign install.
	for key, recs := range flows {
		if key == target {
			continue
		}
		for _, r := range recs {
			if r.Path == switchsim.PathRed {
				t.Fatalf("flow %v hit the red path without an install", key)
			}
		}
	}
}

// TestApplyRemoveAndFlush pins removal and fleet-flush: a propagated
// REMOVE withdraws exactly its entry, ApplyFlush withdraws everything,
// and both report what they touched.
func TestApplyRemoveAndFlush(t *testing.T) {
	srv, err := New(Config{
		Shards:   2,
		NewShard: testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := []features.FlowKey{
		{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 2, Proto: 6},
		{SrcIP: [4]byte{10, 0, 0, 3}, DstIP: [4]byte{10, 0, 0, 4}, SrcPort: 3, DstPort: 4, Proto: 17},
		{SrcIP: [4]byte{10, 0, 0, 5}, DstIP: [4]byte{10, 0, 0, 6}, SrcPort: 5, DstPort: 6, Proto: 6},
	}
	for _, k := range keys {
		if ok, err := srv.ApplyInstall(k); err != nil || !ok {
			t.Fatalf("ApplyInstall(%v): ok=%v err=%v", k, ok, err)
		}
	}
	if got := srv.Stats().BlacklistLen; got != len(keys) {
		t.Fatalf("BlacklistLen=%d want %d", got, len(keys))
	}
	if ok, err := srv.ApplyRemove(keys[0]); err != nil || !ok {
		t.Fatalf("ApplyRemove: ok=%v err=%v, want true <nil>", ok, err)
	}
	if ok, err := srv.ApplyRemove(keys[0]); err != nil || ok {
		t.Fatalf("double ApplyRemove: ok=%v err=%v, want false <nil>", ok, err)
	}
	if got := srv.Stats().BlacklistLen; got != len(keys)-1 {
		t.Fatalf("BlacklistLen=%d after remove, want %d", got, len(keys)-1)
	}
	removed, err := srv.ApplyFlush()
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(keys)-1 {
		t.Fatalf("ApplyFlush removed %d, want %d", removed, len(keys)-1)
	}
	if got := srv.Stats().BlacklistLen; got != 0 {
		t.Fatalf("BlacklistLen=%d after flush, want 0", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ApplyInstall(keys[0]); err != ErrClosed {
		t.Fatalf("ApplyInstall after Close: err=%v want ErrClosed", err)
	}
	if _, err := srv.ApplyRemove(keys[0]); err != ErrClosed {
		t.Fatalf("ApplyRemove after Close: err=%v want ErrClosed", err)
	}
	if _, err := srv.ApplyFlush(); err != ErrClosed {
		t.Fatalf("ApplyFlush after Close: err=%v want ErrClosed", err)
	}
}

// TestOnBlacklistObserver pins which transitions the serve-level
// observer sees: digest-driven installs fire OpInstall with the shard
// that decided them; externally applied installs stay silent (the
// loop-free property federation depends on).
func TestOnBlacklistObserver(t *testing.T) {
	var mu sync.Mutex
	events := map[features.FlowKey][]controller.Op{}
	srv, err := New(Config{
		Shards:   2,
		NewShard: testShardFactory(rejectAllFL(), 8, time.Hour),
		OnBlacklist: func(shard int, ev controller.Event) {
			mu.Lock()
			defer mu.Unlock()
			events[ev.Key] = append(events[ev.Key], ev.Op)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A foreign install is applied silently.
	foreign := features.FlowKey{SrcIP: [4]byte{99, 0, 0, 1}, DstIP: [4]byte{99, 0, 0, 2}, SrcPort: 9, DstPort: 9, Proto: 6}
	if ok, err := srv.ApplyInstall(foreign); err != nil || !ok {
		t.Fatalf("ApplyInstall: ok=%v err=%v", ok, err)
	}

	// Reject-all rules make every flow malicious at the threshold, so
	// the replay produces local installs that must all be observed.
	trace := mixedTrace(t)
	if _, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets)); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if ops := events[foreign.Canonical()]; len(ops) != 0 {
		t.Fatalf("foreign install fired observer events %v, want none", ops)
	}
	installs := 0
	for _, ops := range events {
		for _, op := range ops {
			if op == controller.OpInstall {
				installs++
			}
		}
	}
	if installs != st.RulesInstalled-1 {
		// -1: the foreign ApplyInstall counts in RulesInstalled but
		// deliberately never reaches the observer.
		t.Fatalf("observed %d OpInstall events, want %d (RulesInstalled-1)", installs, st.RulesInstalled-1)
	}
	if installs == 0 {
		t.Fatal("replay produced no observed installs")
	}
}

// TestApplyConcurrentWithTraffic exercises the any-goroutine contract
// under the race detector: appliers hammer the control surface while
// the producer replays and the supervisor closes.
func TestApplyConcurrentWithTraffic(t *testing.T) {
	srv, err := New(Config{
		Shards:      4,
		BatchSize:   16,
		NewShard:    testShardFactory(acceptAllFL(), 8, time.Hour),
		OnBlacklist: func(int, controller.Event) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := traffic.GenerateBenign(31, 60)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := features.FlowKey{SrcIP: [4]byte{172, 16, byte(g), 1}, DstIP: [4]byte{172, 16, byte(g), 2}, SrcPort: uint16(g), DstPort: 80, Proto: 6}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.ApplyInstall(k); err == ErrClosed {
					return
				}
				if _, err := srv.ApplyRemove(k); err == ErrClosed {
					return
				}
				if i%8 == 0 {
					if _, err := srv.ApplyFlush(); err == ErrClosed {
						return
					}
				}
			}
		}(g)
	}
	for round := 0; round < 5; round++ {
		if _, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if _, err := srv.ApplyInstall(features.FlowKey{}); err != ErrClosed {
		t.Fatalf("ApplyInstall after Close: err=%v want ErrClosed", err)
	}
}
