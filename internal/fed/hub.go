package fed

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"iguard/internal/features"
)

// HubConfig parameterises NewHub. The zero value is serviceable: a
// system clock, 15s keepalives, no read timeout, and a 256-frame
// outbound queue per node.
type HubConfig struct {
	// NodeID identifies the hub in its HELLO replies.
	NodeID uint64
	// Keepalive is the idle keepalive cadence per connection: when the
	// hub has sent nothing for this long it emits a KEEPALIVE frame so
	// half-open connections die at the peer's read timeout instead of
	// lingering. Zero defaults to 15s; negative disables.
	Keepalive time.Duration
	// ReadTimeout, when positive, bounds the silence the hub tolerates
	// from a node before declaring it dead. Nodes keepalive at their
	// own cadence, so a value of ~3× the fleet keepalive is a safe
	// dead-peer cutoff.
	ReadTimeout time.Duration
	// OutboundDepth bounds each connection's outbound frame queue.
	// A node that cannot drain rebroadcasts at fleet pace is kicked
	// (and resynchronised by replay when it reconnects) rather than
	// allowed to stall the hub or grow the queue without bound. Zero
	// defaults to 256.
	OutboundDepth int
	// Clock supplies time; nil defaults to SystemClock. Tests inject
	// FakeClock to drive keepalives deterministically.
	Clock Clock
	// Logf, when non-nil, receives one line per connection lifecycle
	// event and protocol error.
	Logf func(format string, args ...any)
}

func (c HubConfig) withDefaults() HubConfig {
	if c.Keepalive == 0 {
		c.Keepalive = 15 * time.Second
	}
	if c.OutboundDepth <= 0 {
		c.OutboundDepth = 256
	}
	if c.Clock == nil {
		c.Clock = SystemClock()
	}
	return c
}

// HubStats is a snapshot of hub activity.
type HubStats struct {
	// Nodes is the current connection count; Entries the size of the
	// deduplicated blacklist view.
	Nodes   int `json:"nodes"`
	Entries int `json:"entries"`
	// Accepted counts completed handshakes; Rejected counts
	// connections dropped during or after handshake for protocol
	// violations (bad magic, version skew, sequence gaps).
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	// Announces counts first-seen announcements (each triggers one
	// rebroadcast round); DupAnnounces counts announcements dedup
	// suppressed.
	Announces    uint64 `json:"announces"`
	DupAnnounces uint64 `json:"dup_announces"`
	// InstallsSent / RemovesSent / FlushesSent count frames enqueued
	// to nodes, rebroadcasts and join replays alike.
	InstallsSent uint64 `json:"installs_sent"`
	RemovesSent  uint64 `json:"removes_sent"`
	FlushesSent  uint64 `json:"flushes_sent"`
	// StatsFrames counts node stats reports received. SlowKicks
	// counts nodes disconnected for not draining their outbound
	// queue.
	StatsFrames uint64 `json:"stats_frames"`
	SlowKicks   uint64 `json:"slow_kicks"`
}

// String renders a one-line operator summary.
func (s HubStats) String() string {
	return fmt.Sprintf("nodes=%d entries=%d accepted=%d rejected=%d announces=%d dup=%d sent: installs=%d removes=%d flushes=%d; statsFrames=%d slowKicks=%d",
		s.Nodes, s.Entries, s.Accepted, s.Rejected, s.Announces, s.DupAnnounces,
		s.InstallsSent, s.RemovesSent, s.FlushesSent, s.StatsFrames, s.SlowKicks)
}

// hubConn is one node connection. The reader goroutine owns the
// net.Conn's read side; the writer goroutine owns the write side and
// the outgoing sequence counter; everyone else talks to the connection
// only through out. done closes exactly once (via closeOnce) when the
// connection is torn down, which both stops the writer and marks the
// conn dead to broadcasters — out is never closed, so a racing
// enqueue lands in a buffer nobody drains instead of panicking.
type hubConn struct {
	conn      net.Conn
	node      uint64
	out       chan Frame
	done      chan struct{}
	closeOnce sync.Once
	// targets is the reader goroutine's broadcast scratch: the fan-out
	// list of this node's announcements, reused across them.
	targets []*hubConn
}

// close tears the connection down once: marks it dead and closes the
// socket, which unblocks both the reader and the writer.
func (c *hubConn) close(logf func(string, ...any)) {
	c.closeOnce.Do(func() {
		close(c.done)
		if err := c.conn.Close(); err != nil && logf != nil {
			logf("fed hub: close node %d: %v", c.node, err)
		}
	})
}

// Hub is the federation rendezvous: N nodes connect, announce the
// blacklist installs their local controllers decide, and receive every
// other node's installs back. The hub holds the deduplicated union of
// all announcements and replays it to each (re)joining node, so the
// fleet converges to one blacklist view regardless of join order or
// partitions — eventual consistency with the hub as the serialisation
// point.
type Hub struct {
	cfg HubConfig
	ln  net.Listener
	wg  sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	conns   map[*hubConn]struct{}
	entries map[keyOf]uint64 // canonical key -> first announcing node
	stats   HubStats
	last    map[uint64]StatsPayload // latest STATS per node
}

// keyOf is the dedup identity: the canonical flow key, whose fold both
// the shard router and the switch tables derive from. Two
// announcements for the two directions of one connection dedup to one
// entry here exactly as they index one slot there.
type keyOf = [13]byte

// NewHub wraps an accepted listener (the caller owns binding and
// address selection) in a hub runtime. Serve starts accepting.
func NewHub(ln net.Listener, cfg HubConfig) *Hub {
	return &Hub{
		cfg:     cfg.withDefaults(),
		ln:      ln,
		conns:   map[*hubConn]struct{}{},
		entries: map[keyOf]uint64{},
		last:    map[uint64]StatsPayload{},
	}
}

// Addr returns the listener's address (useful with ":0" listeners).
func (h *Hub) Addr() net.Addr { return h.ln.Addr() }

// Serve accepts node connections until Close (or a listener error).
// It blocks; run it on its own goroutine.
func (h *Hub) Serve() error {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.serveConn(conn)
		}()
	}
}

// Close stops accepting, disconnects every node, and waits for the
// per-connection goroutines to finish. Idempotent.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	conns := make([]*hubConn, 0, len(h.conns))
	for c := range h.conns { //iguard:sorted teardown order is irrelevant
		conns = append(conns, c)
	}
	h.mu.Unlock()

	err := h.ln.Close()
	for _, c := range conns {
		c.close(h.cfg.Logf)
	}
	h.wg.Wait()
	return err
}

// Stats snapshots hub activity.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stats
	st.Nodes = len(h.conns)
	st.Entries = len(h.entries)
	return st
}

// NodeStats returns the latest STATS payload each node reported,
// keyed by node ID.
func (h *Hub) NodeStats() map[uint64]StatsPayload {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[uint64]StatsPayload, len(h.last))
	for id, p := range h.last { //iguard:sorted map copy; the result is itself a map
		out[id] = p
	}
	return out
}

func (h *Hub) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// setReadDeadline arms the dead-peer cutoff before a blocking read.
func (h *Hub) setReadDeadline(conn net.Conn) error {
	if h.cfg.ReadTimeout <= 0 {
		return nil
	}
	return conn.SetReadDeadline(h.cfg.Clock.Now().Add(h.cfg.ReadTimeout))
}

// serveConn runs one node connection: handshake, register + replay,
// then the announcement loop. Any protocol violation tears the
// connection down; the node's agent reconnects and resynchronises.
func (h *Hub) serveConn(conn net.Conn) {
	// One buffered reader serves the handshake and readLoop, so frames
	// the node sent right behind its HELLO are not lost between them.
	br := bufio.NewReaderSize(conn, connBufSize)
	var hello Frame
	if err := h.setReadDeadline(conn); err != nil {
		h.logf("fed hub: %v: arm deadline: %v", conn.RemoteAddr(), err)
	}
	if err := ReadFrame(br, &hello); err != nil {
		h.reject(conn, fmt.Sprintf("handshake read: %v", err))
		return
	}
	if hello.Type != THello || hello.Seq != 1 {
		h.reject(conn, fmt.Sprintf("handshake: got %v seq=%d, want hello seq=1", hello.Type, hello.Seq))
		return
	}
	if hello.HelloVersion != Version {
		h.reject(conn, fmt.Sprintf("version skew: node %d speaks v%d, hub speaks v%d", hello.Node, hello.HelloVersion, Version))
		return
	}

	c := &hubConn{
		conn: conn,
		node: hello.Node,
		out:  make(chan Frame, h.cfg.OutboundDepth),
		done: make(chan struct{}),
	}

	// Register, then snapshot the entry set for the join replay. Both
	// under one critical section so no concurrently announced entry
	// is either lost (announced after snapshot, broadcast before
	// registration) or double-delivered.
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		c.close(h.cfg.Logf)
		return
	}
	h.conns[c] = struct{}{}
	h.stats.Accepted++
	replay := make([]keyOf, 0, len(h.entries))
	for k := range h.entries { //iguard:sorted set replay; the receiver applies a set union
		replay = append(replay, k)
	}
	h.stats.InstallsSent += uint64(len(replay))
	h.mu.Unlock()

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.writeLoop(c)
	}()

	// HELLO reply first, then the current blacklist view: a joining
	// (or rejoining) node converges before the first live rebroadcast
	// reaches it. These block rather than drop — the queue is sized
	// for fleets far larger than the entry replay, and a peer that
	// cannot absorb its own join replay is torn down by write error.
	h.send(c, Frame{Type: THello, HelloVersion: Version, Node: h.cfg.NodeID})
	for _, k := range replay {
		h.send(c, Frame{Type: TInstall, Key: features.FlowKeyFromBytes(k)})
	}

	h.logf("fed hub: node %d joined from %v (replayed %d entries)", c.node, conn.RemoteAddr(), len(replay))
	err := h.readLoop(c, br)
	h.unregister(c)
	c.close(h.cfg.Logf)
	if err != nil {
		h.logf("fed hub: node %d left: %v", c.node, err)
	} else {
		h.logf("fed hub: node %d left", c.node)
	}
}

// reject drops a connection that failed the handshake.
func (h *Hub) reject(conn net.Conn, why string) {
	h.mu.Lock()
	h.stats.Rejected++
	h.mu.Unlock()
	h.logf("fed hub: %v rejected: %s", conn.RemoteAddr(), why)
	if err := conn.Close(); err != nil {
		h.logf("fed hub: %v: close: %v", conn.RemoteAddr(), err)
	}
}

// unregister removes a connection from the broadcast set.
func (h *Hub) unregister(c *hubConn) {
	h.mu.Lock()
	delete(h.conns, c)
	h.mu.Unlock()
}

// send enqueues one frame for c's writer, blocking until there is
// queue space or the connection dies. Used for the handshake replay,
// where back-pressure is acceptable; rebroadcasts use enqueue.
func (h *Hub) send(c *hubConn, f Frame) {
	select {
	case c.out <- f:
	case <-c.done:
	}
}

// enqueue hands one frame to c's writer without ever blocking the
// broadcaster: a full queue means the node is not draining at fleet
// pace, and the hub kicks it (the reconnect replay will resynchronise
// it) instead of stalling every other node behind it.
func (h *Hub) enqueue(c *hubConn, f Frame) {
	select {
	case c.out <- f:
	case <-c.done:
	default:
		h.mu.Lock()
		h.stats.SlowKicks++
		h.mu.Unlock()
		h.logf("fed hub: node %d kicked: outbound queue full", c.node)
		c.close(h.cfg.Logf)
	}
}

// writeLoop owns the connection's write side and its outgoing
// sequence numbers, and emits a KEEPALIVE whenever the connection has
// been send-idle for the keepalive interval. Queued frames leave in
// bursts (frameWriter.burst); the HELLO reply shares its segment with
// the join replay queued right behind it, which the agent reads
// through one buffered reader.
func (h *Hub) writeLoop(c *hubConn) {
	w := newFrameWriter(c.conn)
	for {
		var idle <-chan time.Time
		if h.cfg.Keepalive > 0 {
			idle = h.cfg.Clock.After(h.cfg.Keepalive)
		}
		var err error
		select {
		case f := <-c.out:
			// Frames lost with a failed write are not counted: the
			// node is cut and resynchronised by join replay.
			_, err = w.burst(f, c.out)
		case <-idle:
			err = w.send(Frame{Type: TKeepalive})
		case <-c.done:
			return
		}
		if err != nil {
			c.close(h.cfg.Logf)
			return
		}
	}
}

// readLoop consumes the node's frames until error, enforcing the
// gap-free sequence contract and dispatching each frame.
func (h *Hub) readLoop(c *hubConn, br *bufio.Reader) error {
	lastSeq := uint64(1) // the handshake HELLO
	var f Frame
	for {
		if err := h.setReadDeadline(c.conn); err != nil {
			return err
		}
		if err := ReadFrame(br, &f); err != nil {
			return err
		}
		if f.Seq != lastSeq+1 {
			h.mu.Lock()
			h.stats.Rejected++
			h.mu.Unlock()
			return fmt.Errorf("sequence gap: got %d after %d", f.Seq, lastSeq)
		}
		lastSeq = f.Seq
		switch f.Type {
		case TAnnounce:
			h.onAnnounce(c, f.Key)
		case TRemove:
			h.onRemove(c, f.Key)
		case TFlush:
			h.onFlush(c)
		case TStats:
			h.mu.Lock()
			h.stats.StatsFrames++
			h.last[c.node] = f.Stats
			h.mu.Unlock()
		case TKeepalive:
			// Sequence bookkeeping above is the whole point.
		default:
			return fmt.Errorf("unexpected %v frame mid-session", f.Type)
		}
	}
}

// othersLocked snapshots every registered connection except origin
// into origin's reusable fan-out scratch.
func (h *Hub) othersLocked(origin *hubConn) []*hubConn {
	targets := origin.targets[:0]
	for c := range h.conns { //iguard:sorted broadcast fan-out; every target gets the same frame
		if c != origin {
			targets = append(targets, c)
		}
	}
	origin.targets = targets
	return targets
}

// broadcast enqueues f to every target, then clears the scratch so it
// holds no departed connection alive until the next broadcast.
func (h *Hub) broadcast(targets []*hubConn, f Frame) {
	for _, c := range targets {
		h.enqueue(c, f)
	}
	clear(targets)
}

// onAnnounce dedups one node's install announcement and, first time
// the key is seen, rebroadcasts it to every other node. The dedup
// decision and the target snapshot share one critical section; the
// actual sends happen outside it.
func (h *Hub) onAnnounce(origin *hubConn, key features.FlowKey) {
	k := key.Canonical()
	h.mu.Lock()
	if _, dup := h.entries[k.Bytes()]; dup {
		h.stats.DupAnnounces++
		h.mu.Unlock()
		return
	}
	h.entries[k.Bytes()] = origin.node
	h.stats.Announces++
	targets := h.othersLocked(origin)
	h.stats.InstallsSent += uint64(len(targets))
	h.mu.Unlock()

	h.broadcast(targets, Frame{Type: TInstall, Key: k})
	if h.cfg.Logf != nil { // guarded: the arguments would escape even with no logger
		h.logf("fed hub: node %d announced %v -> %d node(s)", origin.node, k, len(targets))
	}
}

// onRemove withdraws an entry and propagates the removal.
func (h *Hub) onRemove(origin *hubConn, key features.FlowKey) {
	k := key.Canonical()
	h.mu.Lock()
	if _, ok := h.entries[k.Bytes()]; !ok {
		h.mu.Unlock()
		return
	}
	delete(h.entries, k.Bytes())
	targets := h.othersLocked(origin)
	h.stats.RemovesSent += uint64(len(targets))
	h.mu.Unlock()

	h.broadcast(targets, Frame{Type: TRemove, Key: k})
	if h.cfg.Logf != nil {
		h.logf("fed hub: node %d removed %v -> %d node(s)", origin.node, k, len(targets))
	}
}

// onFlush clears the fleet view and propagates the flush.
func (h *Hub) onFlush(origin *hubConn) {
	h.mu.Lock()
	n := len(h.entries)
	h.entries = map[keyOf]uint64{}
	targets := h.othersLocked(origin)
	h.stats.FlushesSent += uint64(len(targets))
	h.mu.Unlock()

	h.broadcast(targets, Frame{Type: TFlush})
	h.logf("fed hub: node %d flushed %d entries -> %d node(s)", origin.node, n, len(targets))
}
