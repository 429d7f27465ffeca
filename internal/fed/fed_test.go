package fed

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"iguard/internal/features"
)

// fakeApplier records propagated operations; it stands in for
// *serve.Server so these tests pin the federation layer in isolation.
type fakeApplier struct {
	mu        sync.Mutex
	installed map[features.FlowKey]bool
	installs  int
	removes   int
	flushes   int
}

func newFakeApplier() *fakeApplier {
	return &fakeApplier{installed: map[features.FlowKey]bool{}}
}

func (f *fakeApplier) ApplyInstall(key features.FlowKey) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key = key.Canonical()
	fresh := !f.installed[key]
	f.installed[key] = true
	f.installs++
	return fresh, nil
}

func (f *fakeApplier) ApplyRemove(key features.FlowKey) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key = key.Canonical()
	had := f.installed[key]
	delete(f.installed, key)
	f.removes++
	return had, nil
}

func (f *fakeApplier) ApplyFlush() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.installed)
	f.installed = map[features.FlowKey]bool{}
	f.flushes++
	return n, nil
}

func (f *fakeApplier) snapshot() (installs, removes, flushes, resident int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.installs, f.removes, f.flushes, len(f.installed)
}

// waitFor polls cond with a generous deadline; the tests are
// event-driven so the deadline only bounds genuine failures.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startHub binds a loopback hub and registers its teardown.
func startHub(t testing.TB, cfg HubConfig) *Hub {
	t.Helper()
	return startHubWrapped(t, cfg, func(ln net.Listener) net.Listener { return ln })
}

// startHubWrapped is startHub with the listener passed through wrap
// first (tests count the hub's socket writes this way).
func startHubWrapped(t testing.TB, cfg HubConfig, wrap func(net.Listener) net.Listener) *Hub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHub(wrap(ln), cfg)
	go func() {
		if err := h.Serve(); err != nil {
			t.Errorf("hub serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := h.Close(); err != nil {
			t.Logf("hub close: %v", err)
		}
	})
	return h
}

// testNode is one federated node: a fake applier plus its agent and an
// apply-notification channel.
type testNode struct {
	applier *fakeApplier
	agent   *Agent
	applied chan Frame
}

func startNode(t *testing.T, addr string, id uint64, mutate func(*AgentConfig)) *testNode {
	t.Helper()
	n := &testNode{applier: newFakeApplier(), applied: make(chan Frame, 64)}
	cfg := AgentConfig{
		Addr:       addr,
		NodeID:     id,
		Apply:      n.applier,
		BackoffMin: time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		Keepalive:  -1, // cadence pinned separately with a fake clock
		OnApply: func(ty Type, key features.FlowKey) {
			n.applied <- Frame{Type: ty, Key: key}
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.agent = a
	a.Start()
	t.Cleanup(a.Close)
	return n
}

func (n *testNode) waitApplied(t *testing.T, what string) Frame {
	t.Helper()
	select {
	case f := <-n.applied:
		return f
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return Frame{}
	}
}

// TestFederationPropagatesInstall pins the tentpole behaviour: an
// install announced by node A reaches every other node in one hub
// broadcast round and never echoes back to A.
func TestFederationPropagatesInstall(t *testing.T) {
	hub := startHub(t, HubConfig{NodeID: 100})
	addr := hub.Addr().String()
	a := startNode(t, addr, 1, nil)
	b := startNode(t, addr, 2, nil)
	c := startNode(t, addr, 3, nil)
	waitFor(t, "three nodes joined", func() bool { return hub.Stats().Nodes == 3 })

	key := testKey(1)
	a.agent.Announce(key)

	for _, n := range []*testNode{b, c} {
		got := n.waitApplied(t, "propagated install")
		if got.Type != TInstall || got.Key != key.Canonical() {
			t.Fatalf("applied %v %v, want install %v", got.Type, got.Key, key.Canonical())
		}
		if _, _, _, resident := n.applier.snapshot(); resident != 1 {
			t.Fatalf("resident=%d want 1", resident)
		}
	}
	// Loop-free: the origin never receives its own announcement back.
	if installs, _, _, _ := a.applier.snapshot(); installs != 0 {
		t.Fatalf("origin node applied %d installs, want 0", installs)
	}
	st := hub.Stats()
	if st.Announces != 1 || st.DupAnnounces != 0 || st.InstallsSent != 2 || st.Entries != 1 {
		t.Fatalf("hub stats %+v: want announces=1 dup=0 installsSent=2 entries=1", st)
	}
}

// TestFederationDedupsDuplicateAnnouncements pins the M-node dedup
// guarantee: when every node announces the same flow, each remaining
// node installs it exactly once and the hub counts M-1 duplicates.
func TestFederationDedupsDuplicateAnnouncements(t *testing.T) {
	const M = 4
	hub := startHub(t, HubConfig{})
	addr := hub.Addr().String()
	nodes := make([]*testNode, M)
	for i := range nodes {
		nodes[i] = startNode(t, addr, uint64(i+1), nil)
	}
	waitFor(t, "all nodes joined", func() bool { return hub.Stats().Nodes == M })

	key := testKey(5)
	nodes[0].agent.Announce(key)
	for _, n := range nodes[1:] {
		if got := n.waitApplied(t, "first propagation"); got.Type != TInstall {
			t.Fatalf("applied %v, want install", got.Type)
		}
	}
	// Every other node now announces the same key (as real controllers
	// would if the attacker hits all vantage points).
	for _, n := range nodes[1:] {
		n.agent.Announce(key)
	}
	waitFor(t, "hub dedup of duplicate announcements", func() bool {
		return hub.Stats().DupAnnounces == M-1
	})

	st := hub.Stats()
	if st.Announces != 1 || st.Entries != 1 || st.InstallsSent != M-1 {
		t.Fatalf("hub stats %+v: want announces=1 entries=1 installsSent=%d", st, M-1)
	}
	if installs, _, _, _ := nodes[0].applier.snapshot(); installs != 0 {
		t.Fatalf("origin applied %d installs, want 0", installs)
	}
	for i, n := range nodes[1:] {
		if installs, _, _, resident := n.applier.snapshot(); installs != 1 || resident != 1 {
			t.Fatalf("node %d: installs=%d resident=%d, want exactly 1 and 1", i+2, installs, resident)
		}
	}
}

// TestFederationReplaysEntriesOnJoin pins resynchronisation: a node
// that joins (or rejoins) after entries exist receives the whole view.
func TestFederationReplaysEntriesOnJoin(t *testing.T) {
	hub := startHub(t, HubConfig{})
	addr := hub.Addr().String()
	a := startNode(t, addr, 1, nil)
	waitFor(t, "node A joined", func() bool { return hub.Stats().Nodes == 1 })

	k1, k2 := testKey(11), testKey(12)
	a.agent.Announce(k1)
	a.agent.Announce(k2)
	waitFor(t, "hub holds both entries", func() bool { return hub.Stats().Entries == 2 })

	// A later joiner converges via the handshake replay alone.
	b := startNode(t, addr, 2, nil)
	got := map[features.FlowKey]bool{}
	got[b.waitApplied(t, "replayed install 1").Key] = true
	got[b.waitApplied(t, "replayed install 2").Key] = true
	if !got[k1.Canonical()] || !got[k2.Canonical()] {
		t.Fatalf("replay delivered %v, want %v and %v", got, k1.Canonical(), k2.Canonical())
	}
}

// TestFederationRemoveAndFlushPropagate pins the withdrawal paths,
// including that a removal clears the dedup entry so the key can be
// re-announced later.
func TestFederationRemoveAndFlushPropagate(t *testing.T) {
	hub := startHub(t, HubConfig{})
	addr := hub.Addr().String()
	a := startNode(t, addr, 1, nil)
	b := startNode(t, addr, 2, nil)
	waitFor(t, "both nodes joined", func() bool { return hub.Stats().Nodes == 2 })

	key := testKey(21)
	a.agent.Announce(key)
	if got := b.waitApplied(t, "install"); got.Type != TInstall {
		t.Fatalf("applied %v, want install", got.Type)
	}

	a.agent.AnnounceRemove(key)
	if got := b.waitApplied(t, "remove"); got.Type != TRemove || got.Key != key.Canonical() {
		t.Fatalf("applied %v %v, want remove of %v", got.Type, got.Key, key.Canonical())
	}
	waitFor(t, "hub entry withdrawn", func() bool { return hub.Stats().Entries == 0 })

	// The dedup slot is free again: a re-announcement propagates.
	a.agent.Announce(key)
	if got := b.waitApplied(t, "re-install"); got.Type != TInstall {
		t.Fatalf("applied %v, want install", got.Type)
	}

	a.agent.AnnounceFlush()
	if got := b.waitApplied(t, "flush"); got.Type != TFlush {
		t.Fatalf("applied %v, want flush", got.Type)
	}
	if _, _, flushes, resident := b.applier.snapshot(); flushes != 1 || resident != 0 {
		t.Fatalf("flushes=%d resident=%d, want 1 and 0", flushes, resident)
	}
	if st := hub.Stats(); st.Entries != 0 {
		t.Fatalf("hub entries=%d after flush, want 0", st.Entries)
	}
}

// TestAgentSurvivesHubDeathAndReconnects pins degradation: a dead hub
// leaves the node fully operational (announcements drop instead of
// blocking), and a revived hub is rejoined and resynchronised.
func TestAgentSurvivesHubDeathAndReconnects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hub1 := NewHub(ln, HubConfig{})
	go func() {
		if err := hub1.Serve(); err != nil {
			t.Errorf("hub1 serve: %v", err)
		}
	}()

	n := startNode(t, addr, 1, func(c *AgentConfig) { c.OutboxDepth = 8 })
	waitFor(t, "agent connected", func() bool { return n.agent.Stats().Connected })

	if err := hub1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "agent disconnected", func() bool { return !n.agent.Stats().Connected })

	// Standalone degradation: Announce never blocks; overflow past the
	// outbox depth is counted as drops.
	for i := 0; i < 64; i++ {
		n.agent.Announce(testKey(byte(i)))
	}
	if st := n.agent.Stats(); st.OutboxDrops == 0 {
		t.Fatalf("expected outbox drops with hub down, got %+v", st)
	}

	// Revive the hub on the same address: the agent's backoff loop
	// finds it and the session resumes.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hub2 := NewHub(ln2, HubConfig{})
	go func() {
		if err := hub2.Serve(); err != nil {
			t.Errorf("hub2 serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := hub2.Close(); err != nil {
			t.Logf("hub2 close: %v", err)
		}
	})
	waitFor(t, "agent reconnected", func() bool { return n.agent.Stats().Connected })
	if st := n.agent.Stats(); st.Sessions < 2 {
		t.Fatalf("sessions=%d, want >=2 after reconnect", st.Sessions)
	}
}

// TestAgentBackoffFakeClock pins the reconnect schedule exactly: dial
// attempts happen at t=0 and then after 100ms, 200ms, 400ms, 400ms —
// doubling from BackoffMin and capping at BackoffMax — with no attempt
// before its deadline.
func TestAgentBackoffFakeClock(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	attempts := make(chan int)
	count := 0
	agent, err := NewAgent(AgentConfig{
		Addr:   "hub.invalid:1",
		NodeID: 1,
		Apply:  newFakeApplier(),
		Dial: func(string) (net.Conn, error) {
			count++
			attempts <- count
			return nil, fmt.Errorf("synthetic dial failure %d", count)
		},
		BackoffMin: 100 * time.Millisecond,
		BackoffMax: 400 * time.Millisecond,
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	t.Cleanup(agent.Close)

	wait := func(want int) {
		t.Helper()
		select {
		case got := <-attempts:
			if got != want {
				t.Fatalf("attempt %d, want %d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for dial attempt %d", want)
		}
	}
	none := func() {
		t.Helper()
		select {
		case got := <-attempts:
			t.Fatalf("unexpected dial attempt %d before its backoff elapsed", got)
		case <-time.After(20 * time.Millisecond):
		}
	}
	armed := func() {
		t.Helper()
		waitFor(t, "backoff timer armed", func() bool { return clock.Timers() > 0 })
	}

	wait(1) // immediate first attempt
	armed()
	clock.Advance(100 * time.Millisecond)
	wait(2)
	armed()
	clock.Advance(100 * time.Millisecond)
	none() // backoff doubled to 200ms; 100ms is not enough
	clock.Advance(100 * time.Millisecond)
	wait(3)
	armed()
	clock.Advance(400 * time.Millisecond)
	wait(4)
	armed()
	clock.Advance(400 * time.Millisecond) // capped at BackoffMax
	wait(5)

	if st := agent.Stats(); st.Dials != 5 || st.DialFailures < 4 {
		t.Fatalf("stats %+v: want 5 dials, >=4 failures", st)
	}
}

// TestAgentKeepaliveFakeClock pins the keepalive cadence and the
// gap-free sequence contract: send-idle periods produce KEEPALIVE
// frames whose sequence numbers continue the connection's series.
func TestAgentKeepaliveFakeClock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ln.Close(); err != nil {
			t.Logf("listener close: %v", err)
		}
	}()

	frames := make(chan Frame, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		var hello Frame
		if err := ReadFrame(br, &hello); err != nil {
			t.Errorf("hub read hello: %v", err)
			return
		}
		reply, err := AppendFrame(nil, &Frame{Type: THello, Seq: 1, HelloVersion: Version, Node: 99})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Write(reply); err != nil {
			t.Errorf("hub write hello: %v", err)
			return
		}
		for {
			var f Frame
			if err := ReadFrame(br, &f); err != nil {
				close(frames)
				return
			}
			frames <- f
		}
	}()

	clock := NewFakeClock(time.Unix(0, 0))
	n := newFakeApplier()
	agent, err := NewAgent(AgentConfig{
		Addr:      ln.Addr().String(),
		NodeID:    7,
		Apply:     n,
		Keepalive: 5 * time.Second,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	t.Cleanup(agent.Close)
	waitFor(t, "agent connected", func() bool { return agent.Stats().Connected })

	read := func(what string) Frame {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("connection died waiting for %s", what)
			}
			return f
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return Frame{}
		}
	}

	waitFor(t, "keepalive timer armed", func() bool { return clock.Timers() > 0 })
	clock.Advance(5 * time.Second)
	if f := read("first keepalive"); f.Type != TKeepalive || f.Seq != 2 {
		t.Fatalf("got %v seq=%d, want keepalive seq=2", f.Type, f.Seq)
	}
	waitFor(t, "timer re-armed", func() bool { return clock.Timers() > 0 })
	clock.Advance(5 * time.Second)
	if f := read("second keepalive"); f.Type != TKeepalive || f.Seq != 3 {
		t.Fatalf("got %v seq=%d, want keepalive seq=3", f.Type, f.Seq)
	}
	// Outbox traffic continues the same sequence series.
	key := testKey(3)
	agent.Announce(key)
	if f := read("announce"); f.Type != TAnnounce || f.Seq != 4 || f.Key != key.Canonical() {
		t.Fatalf("got %v seq=%d key=%v, want announce seq=4 %v", f.Type, f.Seq, f.Key, key.Canonical())
	}
}

// TestHubRejectsBadHandshakes pins handshake hygiene: garbage and
// version-skewed peers are dropped and counted, never registered.
func TestHubRejectsBadHandshakes(t *testing.T) {
	hub := startHub(t, HubConfig{})
	addr := hub.Addr().String()

	// Raw garbage: not even a frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("hub kept a garbage connection open")
	}
	if err := conn.Close(); err != nil {
		t.Logf("close: %v", err)
	}

	// Version skew: structurally valid hello, wrong revision.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := AppendFrame(nil, &Frame{Type: THello, Seq: 1, HelloVersion: Version + 1, Node: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Read(buf); err == nil {
		t.Fatal("hub kept a version-skewed connection open")
	}
	if err := conn2.Close(); err != nil {
		t.Logf("close: %v", err)
	}

	waitFor(t, "rejections counted", func() bool { return hub.Stats().Rejected >= 2 })
	if st := hub.Stats(); st.Nodes != 0 || st.Accepted != 0 {
		t.Fatalf("stats %+v: rejected peers must never register", st)
	}
}

// TestHubCollectsNodeStats pins the STATS path: the hub keeps the
// latest payload per node.
func TestHubCollectsNodeStats(t *testing.T) {
	hub := startHub(t, HubConfig{})
	n := startNode(t, hub.Addr().String(), 42, nil)
	waitFor(t, "node joined", func() bool { return hub.Stats().Nodes == 1 })

	p := StatsPayload{Packets: 1000, Installed: 5, BlacklistLen: 5, QueueDrops: 1}
	n.agent.ReportStats(p)
	waitFor(t, "stats recorded", func() bool { return hub.NodeStats()[42] == p })

	p2 := p
	p2.Packets = 2000
	n.agent.ReportStats(p2)
	waitFor(t, "stats updated", func() bool { return hub.NodeStats()[42] == p2 })
	if st := hub.Stats(); st.StatsFrames != 2 {
		t.Fatalf("StatsFrames=%d want 2", st.StatsFrames)
	}
}
