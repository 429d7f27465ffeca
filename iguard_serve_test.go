package iguard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"iguard/internal/features"
	"iguard/internal/serve"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

// TestDeploymentSweep pins the satellite fix: a deployment driven one
// packet at a time can now reclaim stale flow slots explicitly instead
// of waiting for a colliding flow to evict them.
func TestDeploymentSweep(t *testing.T) {
	det := trainTiny(t)
	dep, err := det.NewDeployment(DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dep.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	// Feed a few packets of one flow — fewer than the threshold, so
	// the flow sits unclassified in its slot.
	trace := traffic.GenerateBenign(30, 3)
	n := det.cfg.FlowThreshold - 1
	if n > len(trace.Packets) {
		n = len(trace.Packets)
	}
	var last time.Time
	for i := 0; i < n; i++ {
		dep.Switch.ProcessPacket(&trace.Packets[i])
		last = trace.Packets[i].Timestamp
	}
	if dep.Stats().ActiveFlows == 0 {
		t.Fatal("no flow state accumulated")
	}

	// Sweep past the idle timeout: the stale flows are classified,
	// digested, and their storage reclaimed.
	before := dep.Switch.Counters.Digests
	dep.Sweep(last.Add(det.cfg.FlowTimeout + time.Second))
	if dep.Switch.Counters.Sweeps != 1 {
		t.Fatalf("sweeps=%d want 1", dep.Switch.Counters.Sweeps)
	}
	if dep.Switch.Counters.Digests <= before {
		t.Fatal("sweep classified no idle flows")
	}
	// A second sweep much later also reclaims the lingering labels.
	dep.Sweep(last.Add(10 * det.cfg.FlowTimeout))
	if got := dep.Stats().ActiveFlows; got != 0 {
		t.Fatalf("activeFlows=%d after label-reclaim sweep, want 0", got)
	}
}

// TestNewServerServes drives the detector-integrated serving runtime
// end to end: replay, decisions on every packet, digests reaching the
// per-shard controllers, hot-swap back to the same model, clean drain.
func TestNewServerServes(t *testing.T) {
	det := trainTiny(t)
	cfg := DefaultServeConfig()
	cfg.Shards = 2
	cfg.SweepEvery = det.cfg.FlowTimeout
	srv, err := det.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attack := traffic.MustGenerateAttack(traffic.UDPDDoS, 31, 10)
	trace := traffic.GenerateBenign(32, 40).Merge(attack)
	accepted, err := srv.Replay(context.Background(), serve.NewTraceSource(trace.Packets))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != uint64(len(trace.Packets)) {
		t.Fatalf("accepted=%d of %d", accepted, len(trace.Packets))
	}
	// Hot-swap the (same) model mid-life: the running server keeps
	// serving the detector's compiled whitelist.
	if err := srv.Swap(nil, det.CompiledRules()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Packets != len(trace.Packets) || st.QueueDrops != 0 {
		t.Fatalf("processed=%d queueDrops=%d, want %d and 0", st.Packets, st.QueueDrops, len(trace.Packets))
	}
	if st.Digests == 0 {
		t.Fatal("no digests reached the controllers")
	}
	if st.Swaps != 1 {
		t.Fatalf("swaps=%d want 1", st.Swaps)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shards=%d want 2", len(st.Shards))
	}
}

// TestNewServerDecisionsMatchDeployment pins serving against the
// library: a 1-shard server must reproduce exactly what a bare
// Deployment computes packet by packet (the serve layer adds routing,
// never semantics), whether every packet is handed off alone (batch
// size 1) or in default-sized batches. Sweeps are off on both sides so
// the comparison is pure packet-path.
func TestNewServerDecisionsMatchDeployment(t *testing.T) {
	det := trainTiny(t)
	trace := traffic.GenerateBenign(33, 30).Merge(traffic.MustGenerateAttack(traffic.Mirai, 34, 8))

	dep, err := det.NewDeployment(DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dep.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	want := make([]switchsim.Decision, len(trace.Packets))
	for i := range trace.Packets {
		want[i] = dep.Switch.ProcessPacket(&trace.Packets[i])
	}

	for _, batch := range []int{1, serve.DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			got := make([]switchsim.Decision, len(trace.Packets))
			scfg := ServeConfig{Shards: 1, BatchSize: batch, OnDecision: func(_ int, _ uint32, seq uint64, _ *Packet, d switchsim.Decision) {
				got[seq] = d
			}}
			srv, err := det.NewServer(scfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Replay(context.Background(), serve.NewTraceSource(trace.Packets)); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("packet %d (%v): deployment=%+v server=%+v",
						i, features.KeyOf(&trace.Packets[i]), want[i], got[i])
				}
			}
		})
	}
}
