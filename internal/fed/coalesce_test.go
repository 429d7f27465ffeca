package fed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iguard/internal/features"
)

// countingConn counts the Write calls made on a connection and keeps a
// copy of every byte written, so tests can see how frames were grouped
// into writes and what went on the wire.
type countingConn struct {
	net.Conn
	writes atomic.Int64

	mu   sync.Mutex
	sent bytes.Buffer
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.mu.Lock()
	c.sent.Write(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *countingConn) bytesSent() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.sent.Bytes())
}

// countingListener wraps every accepted connection in a countingConn,
// in accept order.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countingConn{Conn: conn}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *countingListener) conn(i int) *countingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// startCountingHub binds a loopback hub whose accepted connections
// count their writes.
func startCountingHub(tb testing.TB, cfg HubConfig) (*Hub, *countingListener) {
	tb.Helper()
	var cl *countingListener
	h := startHubWrapped(tb, cfg, func(ln net.Listener) net.Listener {
		cl = &countingListener{Listener: ln}
		return cl
	})
	return h, cl
}

// countingDial makes an AgentConfig.Dial whose connections count their
// writes; the last one dialled is published through *last.
func countingDial(last *atomic.Pointer[countingConn]) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		c := &countingConn{Conn: conn}
		last.Store(c)
		return c, nil
	}
}

// seqKey is a distinct flow key for every i.
func seqKey(i int) features.FlowKey {
	var k features.FlowKey
	binary.BigEndian.PutUint32(k.SrcIP[:], 0x0a000000|uint32(i))
	k.DstIP = [4]byte{192, 168, 1, 1}
	k.SrcPort = 1024 + uint16(i%50000)
	k.DstPort = 443
	k.Proto = 6
	return k
}

// appendFrames returns the concatenated AppendFrame encoding of hello
// (seq 1) followed by one frame of type ty per key (seq 2, 3, …).
func appendFrames(t *testing.T, hello Frame, ty Type, keys []features.FlowKey) []byte {
	t.Helper()
	hello.Seq = 1
	out, err := AppendFrame(nil, &hello)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if out, err = AppendFrame(out, &Frame{Type: ty, Seq: uint64(i + 2), Key: k.Canonical()}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestFederationCoalescesBursts pins per-burst I/O: a burst of N
// announces from node A reaches node B complete and in order, in far
// fewer than N writes on each hop, and each connection still carries
// exactly the concatenated frames the per-frame encoder produces — the
// buffering changes how frames are grouped into writes, never the
// bytes. Both hops and the session's gap-free sequence checks run with
// keepalives off, so every byte on the wire is accounted for.
func TestFederationCoalescesBursts(t *testing.T) {
	const N = 1000
	// The outbound queue holds the whole burst: at the default depth
	// (256) the hub kicks node B whenever its writer falls a queue
	// behind the reader, which is the slow-consumer policy, not what
	// this test pins.
	hub, cl := startCountingHub(t, HubConfig{NodeID: 100, Keepalive: -1, OutboundDepth: 2 * N})
	addr := hub.Addr().String()
	var connA atomic.Pointer[countingConn]
	a := startNode(t, addr, 1, func(c *AgentConfig) { c.Dial = countingDial(&connA) })
	waitFor(t, "node A joined", func() bool { return hub.Stats().Nodes == 1 })
	b := startNode(t, addr, 2, nil)
	waitFor(t, "node B joined", func() bool { return hub.Stats().Nodes == 2 && b.agent.Stats().Connected })
	toB := cl.conn(1)

	keys := make([]features.FlowKey, N)
	for i := range keys {
		keys[i] = seqKey(i)
		a.agent.Announce(keys[i])
	}
	for i, k := range keys {
		got := b.waitApplied(t, "propagated install")
		if got.Type != TInstall || got.Key != k.Canonical() {
			t.Fatalf("apply %d at B: %v %v, want install %v (hub %v)", i, got.Type, got.Key, k.Canonical(), hub.Stats())
		}
	}

	for _, st := range []AgentStats{a.agent.Stats(), b.agent.Stats()} {
		if st.Sessions != 1 || st.ProtocolErrors != 0 || st.OutboxDrops != 0 {
			t.Fatalf("agent stats %+v: want one session, no protocol errors, no drops", st)
		}
	}
	if st := hub.Stats(); st.Announces != N || st.SlowKicks != 0 || st.Rejected != 0 {
		t.Fatalf("hub stats %+v: want %d announces, no kicks or rejections", st, N)
	}

	hops := []struct {
		name string
		conn *countingConn
		want []byte
	}{
		{"node A -> hub", connA.Load(), appendFrames(t, Frame{Type: THello, HelloVersion: Version, Node: 1}, TAnnounce, keys)},
		{"hub -> node B", toB, appendFrames(t, Frame{Type: THello, HelloVersion: Version, Node: 100}, TInstall, keys)},
	}
	for _, hop := range hops {
		if got := hop.conn.bytesSent(); !bytes.Equal(got, hop.want) {
			t.Errorf("%s: %d bytes on the wire differ from the %d-byte AppendFrame concatenation", hop.name, len(got), len(hop.want))
		}
		// Per-frame I/O would make N+1 writes; a burst shares a write
		// with whatever queued behind it.
		if w := hop.conn.writes.Load(); w*4 > N {
			t.Errorf("%s: %d writes for %d frames, want far fewer than one per frame", hop.name, w, N+1)
		}
		t.Logf("%s: %d writes for %d frames", hop.name, hop.conn.writes.Load(), N+1)
	}
}

// TestFederationLoneFrameNotHeldBack pins flush-on-drain: one announce
// on an otherwise idle session (keepalives off, so no later frame
// could push it out) is applied at node B.
func TestFederationLoneFrameNotHeldBack(t *testing.T) {
	hub := startHub(t, HubConfig{Keepalive: -1})
	addr := hub.Addr().String()
	a := startNode(t, addr, 1, nil)
	b := startNode(t, addr, 2, nil)
	waitFor(t, "both nodes joined", func() bool {
		return hub.Stats().Nodes == 2 && a.agent.Stats().Connected && b.agent.Stats().Connected
	})

	key := testKey(42)
	a.agent.Announce(key)
	if got := b.waitApplied(t, "lone install"); got.Type != TInstall || got.Key != key.Canonical() {
		t.Fatalf("applied %v %v, want install %v", got.Type, got.Key, key.Canonical())
	}
}

// hangupConn passes its first Write (the HELLO) through and fails
// every later one, as if the hub hung up right after the handshake.
type hangupConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *hangupConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		return 0, errors.New("hub hung up")
	}
	return c.Conn.Write(b)
}

// TestAgentCountsBurstLostToHangup pins the agent's accounting when a
// burst's write fails: every announcement it took from the outbox and
// could not send counts as an outbox drop, so Announced equals what
// was sent, dropped or is still queued for the next session.
func TestAgentCountsBurstLostToHangup(t *testing.T) {
	const N = 500
	hub := startHub(t, HubConfig{Keepalive: -1})
	release := make(chan struct{})
	var dials atomic.Int64
	n := startNode(t, hub.Addr().String(), 1, func(c *AgentConfig) {
		c.Dial = func(addr string) (net.Conn, error) {
			if dials.Add(1) > 1 {
				return nil, errors.New("hub gone")
			}
			<-release
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &hangupConn{Conn: conn}, nil
		}
	})
	// Queue the announces before the session starts, so its first
	// burst takes a whole buffer's worth of them.
	for i := 0; i < N; i++ {
		n.agent.Announce(seqKey(i))
	}
	close(release)
	waitFor(t, "the session to end", func() bool {
		st := n.agent.Stats()
		return st.Sessions == 1 && !st.Connected && dials.Load() > 1
	})

	st := n.agent.Stats()
	if st.Announced != N {
		t.Fatalf("agent stats %+v: want %d announced", st, N)
	}
	queued := uint64(len(n.agent.outbox))
	if st.OutboxDrops <= 1 || st.OutboxDrops+queued != N {
		t.Fatalf("agent stats %+v with %d still queued: want the failed burst's frames (more than one) counted as drops, the rest queued", st, queued)
	}
	if hst := hub.Stats(); hst.Announces != 0 {
		t.Fatalf("hub stats %+v: no announce can have been sent", hst)
	}
	t.Logf("burst lost %d announces, %d still queued", st.OutboxDrops, queued)
}

// TestHubReadTimeout pins the dead-peer cutoff under buffered reads. A
// node that sends its HELLO and two frames in one segment and then
// falls silent is cut about ReadTimeout after the hub drained its
// buffer; a node that keeps sending keepalives well inside the timeout
// stays connected for several timeouts.
func TestHubReadTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	hub := startHub(t, HubConfig{Keepalive: -1, ReadTimeout: timeout})
	addr := hub.Addr().String()

	t.Run("silent node is cut", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := conn.Close(); err != nil {
				t.Logf("close: %v", err)
			}
		}()
		var seg []byte
		for _, f := range []Frame{
			{Type: THello, Seq: 1, HelloVersion: Version, Node: 9},
			{Type: TKeepalive, Seq: 2},
			{Type: TAnnounce, Seq: 3, Key: testKey(1)},
		} {
			if seg, err = AppendFrame(seg, &f); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		if _, err := conn.Write(seg); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// The hub's HELLO reply arrives, then the hub hangs up.
		if _, err := io.Copy(io.Discard, conn); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("hub kept a silent node for %v (ReadTimeout %v)", time.Since(start), timeout)
			}
		}
		if el := time.Since(start); el < timeout*3/4 || el > timeout+time.Second {
			t.Fatalf("silent node cut after %v, want about %v", el, timeout)
		}
		waitFor(t, "silent node unregistered", func() bool { return hub.Stats().Nodes == 0 })
		if st := hub.Stats(); st.Accepted != 1 || st.Entries != 1 {
			t.Fatalf("hub stats %+v: the node's buffered frames must have been read before the cut", st)
		}
	})

	t.Run("keepalives keep a node", func(t *testing.T) {
		n := startNode(t, addr, 2, func(c *AgentConfig) { c.Keepalive = timeout / 4 })
		waitFor(t, "node joined", func() bool { return n.agent.Stats().Connected })
		time.Sleep(4 * timeout)
		if st := n.agent.Stats(); !st.Connected || st.Sessions != 1 {
			t.Fatalf("agent stats %+v: a node sending keepalives was cut", st)
		}
		if st := hub.Stats(); st.Nodes != 1 || st.Accepted != 2 {
			t.Fatalf("hub stats %+v: want the keepalive node still registered", st)
		}
	})
}

// TestHubAnnounceAllocationFree pins the hub's per-announce garbage
// with Logf nil: a duplicate announce allocates nothing, and a
// first-seen announce (with its rebroadcast) allocates nothing beyond
// the entry map's own growth — an announce/remove cycle of one key
// reuses its map slot, so it must read 0 too.
func TestHubAnnounceAllocationFree(t *testing.T) {
	h := NewHub(nil, HubConfig{})
	newConn := func(node uint64) *hubConn {
		c := &hubConn{node: node, out: make(chan Frame, 4), done: make(chan struct{})}
		h.conns[c] = struct{}{}
		return c
	}
	origin, peer := newConn(1), newConn(2)
	key := testKey(3)
	cycle := func() {
		h.onAnnounce(origin, key)
		<-peer.out
		h.onRemove(origin, key)
		<-peer.out
	}
	cycle() // sizes origin's fan-out scratch
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("first-seen announce + remove: %v allocs per cycle, want 0", n)
	}
	h.onAnnounce(origin, key)
	<-peer.out
	if n := testing.AllocsPerRun(200, func() { h.onAnnounce(peer, key) }); n != 0 {
		t.Errorf("duplicate announce: %v allocs, want 0", n)
	}
	if st := h.Stats(); st.DupAnnounces != 201 || st.SlowKicks != 0 {
		t.Fatalf("hub stats %+v: want 201 duplicates, no kicks", st)
	}
}

// BenchmarkFedPropagate drives b.N announces from node A through a
// loopback hub to node B and reports the propagation cost per frame
// and the socket writes per frame on the two hops (A -> hub and
// hub -> B; per-frame I/O would read 2). At most `window` announces
// are in flight, so the queues never shed.
func BenchmarkFedPropagate(b *testing.B) {
	const window = 4096
	hub, cl := startCountingHub(b, HubConfig{NodeID: 100, Keepalive: -1, OutboundDepth: 2 * window})
	addr := hub.Addr().String()

	var applied atomic.Int64
	progress := make(chan struct{}, 1)
	newAgent := func(id uint64, dial func(string) (net.Conn, error)) *Agent {
		a, err := NewAgent(AgentConfig{
			Addr: addr, NodeID: id, Apply: newFakeApplier(), Dial: dial,
			OutboxDepth: 2 * window, Keepalive: -1,
			OnApply: func(Type, features.FlowKey) {
				applied.Add(1)
				select {
				case progress <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		a.Start()
		b.Cleanup(a.Close)
		return a
	}
	var connA atomic.Pointer[countingConn]
	nodeA := newAgent(1, countingDial(&connA))
	waitFor(b, "node A joined", func() bool { return hub.Stats().Nodes == 1 })
	nodeB := newAgent(2, nil)
	waitFor(b, "node B joined", func() bool { return hub.Stats().Nodes == 2 && nodeB.Stats().Connected })
	toB := cl.conn(1)
	keys := make([]features.FlowKey, b.N)
	for i := range keys {
		keys[i] = seqKey(i)
	}
	w0 := connA.Load().writes.Load() + toB.writes.Load()

	b.ResetTimer()
	for i, k := range keys {
		for int64(i)-applied.Load() >= window {
			<-progress
		}
		nodeA.Announce(k)
	}
	for applied.Load() < int64(b.N) {
		<-progress
	}
	b.StopTimer()

	if st := nodeA.Stats(); st.OutboxDrops != 0 {
		b.Fatalf("node A dropped %d announces", st.OutboxDrops)
	}
	writes := connA.Load().writes.Load() + toB.writes.Load() - w0
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(writes)/float64(b.N), "writes/frame")
}
