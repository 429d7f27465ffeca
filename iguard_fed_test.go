package iguard

import (
	"context"
	"net"
	"testing"
	"time"

	"iguard/internal/controller"
	"iguard/internal/features"
	"iguard/internal/fed"
	"iguard/internal/serve"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

func fedWaitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFederationEndToEnd is the acceptance test for the federation
// tentpole, through the public facade: an attack replayed at node A
// blacklists the attacker fleet-wide, so node B drops the same flows
// from their very first packet — something a standalone node cannot
// do, since it needs FlowThreshold packets before it can classify.
func TestFederationEndToEnd(t *testing.T) {
	det := trainTiny(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := fed.NewHub(ln, fed.HubConfig{NodeID: 100})
	go func() {
		if err := hub.Serve(); err != nil {
			t.Errorf("hub serve: %v", err)
		}
	}()
	defer func() {
		if err := hub.Close(); err != nil {
			t.Logf("hub close: %v", err)
		}
	}()
	addr := hub.Addr().String()

	// Node A: its controllers' installs are announced to the hub.
	var agentA *fed.Agent
	cfgA := DefaultServeConfig()
	cfgA.Shards = 2
	cfgA.OnBlacklist = func(_ int, ev controller.Event) {
		if ev.Op == controller.OpInstall {
			agentA.Announce(ev.Key)
		}
	}
	srvA, err := det.NewServer(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	agentA, err = fed.NewAgent(fed.AgentConfig{Addr: addr, NodeID: 1, Apply: srvA})
	if err != nil {
		t.Fatal(err)
	}
	agentA.Start()
	defer agentA.Close()

	// Node B: receives the fleet view; its own traffic comes later.
	cfgB := DefaultServeConfig()
	cfgB.Shards = 2
	srvB, err := det.NewServer(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	applied := make(chan features.FlowKey, 256)
	agentB, err := fed.NewAgent(fed.AgentConfig{
		Addr: addr, NodeID: 2, Apply: srvB,
		OnApply: func(ty fed.Type, key features.FlowKey) {
			if ty == fed.TInstall {
				applied <- key
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	agentB.Start()
	defer agentB.Close()
	fedWaitFor(t, "both nodes joined", func() bool { return hub.Stats().Nodes == 2 })

	// Attack at node A.
	attack := traffic.MustGenerateAttack(traffic.UDPDDoS, 8, 8)
	traceA := traffic.GenerateBenign(9, 50).Merge(attack)
	if _, err := srvA.Replay(context.Background(), serve.NewTraceSource(traceA.Packets)); err != nil {
		t.Fatal(err)
	}
	installedA := srvA.Stats().RulesInstalled
	if installedA == 0 {
		t.Fatal("node A installed no blacklist rules — the attack was not detected locally")
	}

	// One hub broadcast round later, node B holds node A's verdicts.
	fedWaitFor(t, "node B converged on node A's installs", func() bool {
		return agentB.Stats().AppliedInstalls >= uint64(installedA)
	})
	if got := srvB.Stats().BlacklistLen; got != installedA {
		t.Fatalf("node B resident blacklist %d, want %d (node A's installs)", got, installedA)
	}
	blacklisted := map[features.FlowKey]bool{}
drain:
	for {
		select {
		case k := <-applied:
			blacklisted[k] = true
		default:
			break drain
		}
	}

	// The same attack now hits node B: every packet of a propagated
	// flow is dropped from packet one. (A standalone node B would pass
	// the first FlowThreshold packets of each flow while its own
	// classifier accumulated state — that head-start is exactly what
	// federation removes.) Count how many attack packets belong to
	// propagated flows; exactly those must take the red path.
	wantRed := 0
	for i := range attack.Packets {
		key, _ := features.CanonicalFoldOf(&attack.Packets[i])
		if blacklisted[key] {
			wantRed++
		}
	}
	if wantRed == 0 {
		t.Fatal("no attack packet belongs to a propagated flow")
	}
	if _, err := srvB.Replay(context.Background(), serve.NewTraceSource(attack.Packets)); err != nil {
		t.Fatal(err)
	}
	stB := srvB.Stats()
	if stB.PathCounts[switchsim.PathRed] < wantRed {
		t.Fatalf("node B red-path packets %d, want >=%d (propagated blacklist must catch flows from packet one)",
			stB.PathCounts[switchsim.PathRed], wantRed)
	}
	if stB.Drops < wantRed {
		t.Fatalf("node B dropped %d, want >=%d", stB.Drops, wantRed)
	}

	agentA.Close()
	agentB.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srvB.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationDeadHubStandaloneIdentical is the degradation half of
// the acceptance criteria: a node whose hub is unreachable must make
// decisions byte-identical to a standalone server — federation rides
// alongside the data path, never in it.
func TestFederationDeadHubStandaloneIdentical(t *testing.T) {
	det := trainTiny(t)
	trace := traffic.GenerateBenign(33, 30).Merge(traffic.MustGenerateAttack(traffic.Mirai, 34, 8))

	// A listener bound and immediately closed yields an address that
	// refuses connections fast — the "hub died before we ever spoke"
	// case.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	run := func(federated bool) []switchsim.Decision {
		got := make([]switchsim.Decision, len(trace.Packets))
		var agent *fed.Agent
		cfg := ServeConfig{Shards: 2, OnDecision: func(_ int, _ uint32, seq uint64, _ *Packet, d switchsim.Decision) {
			got[seq] = d
		}}
		if federated {
			cfg.OnBlacklist = func(_ int, ev controller.Event) {
				if ev.Op == controller.OpInstall {
					agent.Announce(ev.Key)
				}
			}
		}
		srv, err := det.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if federated {
			agent, err = fed.NewAgent(fed.AgentConfig{
				Addr: deadAddr, NodeID: 9, Apply: srv,
				BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			agent.Start()
		}
		if _, err := srv.Replay(context.Background(), serve.NewTraceSource(trace.Packets)); err != nil {
			t.Fatal(err)
		}
		if federated {
			// The replay can outrun the agent's first dial; wait for
			// the attempt so the run demonstrably served while the
			// agent was probing a dead hub.
			fedWaitFor(t, "a dial attempt at the dead hub", func() bool {
				return agent.Stats().Dials > 0
			})
			agent.Close()
			st := agent.Stats()
			if st.Connected || st.Sessions != 0 {
				t.Fatalf("agent somehow connected to a dead hub: %+v", st)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	standalone := run(false)
	federated := run(true)
	for i := range standalone {
		if standalone[i] != federated[i] {
			t.Fatalf("decision %d diverged: standalone %+v vs dead-hub federated %+v", i, standalone[i], federated[i])
		}
	}
}
