package fed

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iguard/internal/features"
)

// Applier is the slice of the local serving runtime the agent drives
// when the hub propagates another switch's blacklist decisions here.
// *serve.Server satisfies it; every method is safe from any goroutine
// and routes the key to its owning shard off the packet hot path.
type Applier interface {
	ApplyInstall(key features.FlowKey) (applied bool, err error)
	ApplyRemove(key features.FlowKey) (applied bool, err error)
	ApplyFlush() (removed int, err error)
}

// AgentConfig parameterises NewAgent.
type AgentConfig struct {
	// Addr is the hub's TCP address. NodeID identifies this node in
	// its HELLO; the hub uses it for dedup attribution and stats
	// keying, so give each node a distinct ID.
	Addr   string
	NodeID uint64
	// Apply receives propagated operations. Required.
	Apply Applier
	// Dial overrides how connections are made; nil defaults to
	// net.Dial("tcp", addr). Tests substitute net.Pipe or an
	// always-failing dialer.
	Dial func(addr string) (net.Conn, error)
	// OutboxDepth bounds the announcement queue between the local
	// controller's observer (shard goroutines — must never block) and
	// the hub session. When the hub is down or slow the outbox fills
	// and further announcements are counted as drops, not queued
	// without bound: the local switch keeps its own installs either
	// way, so a drop only delays fleet-wide convergence until the
	// entry is next announced. Zero defaults to 1024.
	OutboxDepth int
	// BackoffMin/BackoffMax bound the exponential reconnect backoff
	// (doubling from min to max, reset after a completed handshake).
	// Zero defaults to 100ms / 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Keepalive is the send-idle keepalive cadence; zero defaults to
	// 15s, negative disables.
	Keepalive time.Duration
	// Clock supplies time; nil defaults to SystemClock.
	Clock Clock
	// OnApply, when non-nil, observes each hub-propagated operation
	// after it has been applied locally (Key is the zero key for
	// TFlush). Tests use it to wait for propagation deterministically.
	OnApply func(t Type, key features.FlowKey)
	// Logf, when non-nil, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if c.OutboxDepth <= 0 {
		c.OutboxDepth = 1024
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.Keepalive == 0 {
		c.Keepalive = 15 * time.Second
	}
	if c.Clock == nil {
		c.Clock = SystemClock()
	}
	return c
}

// AgentStats is a snapshot of agent activity.
type AgentStats struct {
	// Connected reports whether a hub session is currently live.
	Connected bool `json:"connected"`
	// Dials counts connection attempts; DialFailures the ones that
	// never reached a completed handshake; Sessions the ones that did.
	Dials        uint64 `json:"dials"`
	DialFailures uint64 `json:"dial_failures"`
	Sessions     uint64 `json:"sessions"`
	// Announced counts frames successfully enqueued toward the hub;
	// OutboxDrops counts announcements discarded because the outbox
	// was full (hub down or slow) or because the write carrying them
	// failed.
	Announced   uint64 `json:"announced"`
	OutboxDrops uint64 `json:"outbox_drops"`
	// Applied* count hub-propagated operations applied to the local
	// runtime.
	AppliedInstalls uint64 `json:"applied_installs"`
	AppliedRemoves  uint64 `json:"applied_removes"`
	AppliedFlushes  uint64 `json:"applied_flushes"`
	// ProtocolErrors counts sessions torn down for protocol
	// violations (sequence gaps, version skew, unexpected frames).
	ProtocolErrors uint64 `json:"protocol_errors"`
}

// String renders a one-line operator summary.
func (s AgentStats) String() string {
	return fmt.Sprintf("connected=%v dials=%d failures=%d sessions=%d announced=%d outboxDrops=%d applied: installs=%d removes=%d flushes=%d; protoErrs=%d",
		s.Connected, s.Dials, s.DialFailures, s.Sessions, s.Announced, s.OutboxDrops,
		s.AppliedInstalls, s.AppliedRemoves, s.AppliedFlushes, s.ProtocolErrors)
}

// Agent bridges one serving runtime to the federation hub. The local
// controller's install decisions arrive via Announce (wired from the
// serve-level OnBlacklist observer), are queued in a bounded outbox,
// and flow to the hub when a session is up; hub-propagated operations
// are applied through the Applier. The agent never touches the packet
// hot path, and a dead hub costs nothing but convergence: the node
// keeps serving on its own decisions, byte-identical to standalone.
type Agent struct {
	cfg    AgentConfig
	outbox chan Frame
	done   chan struct{}
	wg     sync.WaitGroup

	closeOnce sync.Once
	closed    atomic.Bool

	// connMu guards conn, the live session's socket, so Close can
	// sever a session blocked in a read. Only the pointer is touched
	// under the lock; Close calls happen after release.
	connMu sync.Mutex
	conn   net.Conn

	connected atomic.Bool
	dials,
	dialFailures,
	sessions,
	announced,
	outboxDrops,
	appliedInstalls,
	appliedRemoves,
	appliedFlushes,
	protocolErrors atomic.Uint64
}

// NewAgent validates cfg and returns an agent; Start begins the
// connect loop.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Apply == nil {
		return nil, fmt.Errorf("fed: AgentConfig.Apply is required")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("fed: AgentConfig.Addr is required")
	}
	cfg = cfg.withDefaults()
	return &Agent{
		cfg:    cfg,
		outbox: make(chan Frame, cfg.OutboxDepth),
		done:   make(chan struct{}),
	}, nil
}

// Start launches the connect/serve loop. Call once.
func (a *Agent) Start() {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		a.run()
	}()
}

// Close stops the agent — severing any live session, even one blocked
// mid-read — and waits for its goroutines. Idempotent.
func (a *Agent) Close() {
	a.closeOnce.Do(func() {
		a.closed.Store(true)
		close(a.done)
	})
	a.connMu.Lock()
	conn := a.conn
	a.connMu.Unlock()
	if conn != nil {
		// The session's own teardown may have won the race; a second
		// socket close is a harmless error.
		if err := conn.Close(); err != nil {
			a.logf("fed agent %d: close live conn: %v", a.cfg.NodeID, err)
		}
	}
	a.wg.Wait()
}

// Stats snapshots agent activity.
func (a *Agent) Stats() AgentStats {
	return AgentStats{
		Connected:       a.connected.Load(),
		Dials:           a.dials.Load(),
		DialFailures:    a.dialFailures.Load(),
		Sessions:        a.sessions.Load(),
		Announced:       a.announced.Load(),
		OutboxDrops:     a.outboxDrops.Load(),
		AppliedInstalls: a.appliedInstalls.Load(),
		AppliedRemoves:  a.appliedRemoves.Load(),
		AppliedFlushes:  a.appliedFlushes.Load(),
		ProtocolErrors:  a.protocolErrors.Load(),
	}
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// enqueue offers one frame to the outbox without ever blocking the
// caller — announcements originate on shard goroutines, where blocking
// would stall the data path. A full outbox drops the frame and counts
// it.
func (a *Agent) enqueue(f Frame) {
	select {
	case a.outbox <- f:
		a.announced.Add(1)
	default:
		a.outboxDrops.Add(1)
	}
}

// Announce queues a locally decided install for fleet propagation.
// Safe from any goroutine; never blocks.
func (a *Agent) Announce(key features.FlowKey) {
	a.enqueue(Frame{Type: TAnnounce, Key: key.Canonical()})
}

// AnnounceRemove queues a local withdrawal for fleet propagation.
func (a *Agent) AnnounceRemove(key features.FlowKey) {
	a.enqueue(Frame{Type: TRemove, Key: key.Canonical()})
}

// AnnounceFlush queues a fleet-wide flush.
func (a *Agent) AnnounceFlush() {
	a.enqueue(Frame{Type: TFlush})
}

// ReportStats queues a stats report for the hub's fleet overview.
func (a *Agent) ReportStats(p StatsPayload) {
	a.enqueue(Frame{Type: TStats, Stats: p})
}

// run is the connect loop: dial, session, backoff, repeat. Backoff
// doubles from BackoffMin to BackoffMax on consecutive failures and
// resets after any completed handshake, so a briefly absent hub is
// rejoined quickly and a long-dead one is probed gently.
func (a *Agent) run() {
	backoff := a.cfg.BackoffMin
	for {
		select {
		case <-a.done:
			return
		default:
		}
		a.dials.Add(1)
		conn, err := a.cfg.Dial(a.cfg.Addr)
		if err != nil {
			a.dialFailures.Add(1)
			a.logf("fed agent %d: dial %s: %v (retry in %v)", a.cfg.NodeID, a.cfg.Addr, err, backoff)
			if !a.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, a.cfg.BackoffMax)
			continue
		}
		// Publish the conn so Close can sever a blocked session; if
		// Close already ran, the conn is dead on arrival.
		a.connMu.Lock()
		if a.closed.Load() {
			a.connMu.Unlock()
			if err := conn.Close(); err != nil {
				a.logf("fed agent %d: close: %v", a.cfg.NodeID, err)
			}
			return
		}
		a.conn = conn
		a.connMu.Unlock()
		ok := a.session(conn)
		a.connMu.Lock()
		a.conn = nil
		a.connMu.Unlock()
		if ok {
			backoff = a.cfg.BackoffMin
		} else {
			a.dialFailures.Add(1)
			if !a.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, a.cfg.BackoffMax)
		}
	}
}

// sleep waits d on the injected clock, returning false if the agent
// was closed first.
func (a *Agent) sleep(d time.Duration) bool {
	select {
	case <-a.cfg.Clock.After(d):
		return true
	case <-a.done:
		return false
	}
}

// session runs one hub connection to completion and reports whether
// the handshake succeeded (which resets the reconnect backoff).
func (a *Agent) session(conn net.Conn) (handshaken bool) {
	var once sync.Once
	closeConn := func() {
		once.Do(func() {
			if err := conn.Close(); err != nil {
				a.logf("fed agent %d: close: %v", a.cfg.NodeID, err)
			}
		})
	}
	defer a.connected.Store(false)
	defer closeConn()

	// One buffered reader serves the handshake and readLoop, so frames
	// the hub sent right behind its HELLO are not lost between them.
	br := bufio.NewReaderSize(conn, connBufSize)
	w := newFrameWriter(conn)
	if err := w.send(Frame{Type: THello, HelloVersion: Version, Node: a.cfg.NodeID}); err != nil {
		a.logf("fed agent %d: send hello: %v", a.cfg.NodeID, err)
		return false
	}
	var reply Frame
	if err := ReadFrame(br, &reply); err != nil {
		a.logf("fed agent %d: read hello: %v", a.cfg.NodeID, err)
		return false
	}
	if reply.Type != THello || reply.Seq != 1 {
		a.protocolErrors.Add(1)
		a.logf("fed agent %d: handshake: got %v seq=%d, want hello seq=1", a.cfg.NodeID, reply.Type, reply.Seq)
		return false
	}
	if reply.HelloVersion != Version {
		a.protocolErrors.Add(1)
		a.logf("fed agent %d: version skew: hub speaks v%d, node speaks v%d", a.cfg.NodeID, reply.HelloVersion, Version)
		return false
	}

	a.sessions.Add(1)
	a.connected.Store(true)
	a.logf("fed agent %d: connected to hub node %d at %s", a.cfg.NodeID, reply.Node, a.cfg.Addr)

	// The reader applies propagated operations as they arrive and
	// reports its exit; the session loop owns the write side. Either
	// side's error closes the conn, which unblocks the other.
	errc := make(chan error, 1)
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		errc <- a.readLoop(br)
	}()

	var sessionErr error
loop:
	for {
		var idle <-chan time.Time
		if a.cfg.Keepalive > 0 {
			idle = a.cfg.Clock.After(a.cfg.Keepalive)
		}
		select {
		case f := <-a.outbox:
			if lost, err := w.burst(f, a.outbox); err != nil {
				// Taken from the outbox, never sent: count them
				// like a full outbox's drops.
				a.outboxDrops.Add(uint64(lost))
				sessionErr = err
				break loop
			}
		case <-idle:
			if err := w.send(Frame{Type: TKeepalive}); err != nil {
				sessionErr = err
				break loop
			}
		case err := <-errc:
			sessionErr = err
			closeConn()
			a.logf("fed agent %d: session ended: %v", a.cfg.NodeID, sessionErr)
			return true
		case <-a.done:
			closeConn()
			<-errc
			return true
		}
	}
	// Write-side failure: close the conn to stop the reader, then
	// reap it before redialling so only one session touches Apply at
	// a time.
	closeConn()
	<-errc
	a.logf("fed agent %d: session ended: %v", a.cfg.NodeID, sessionErr)
	return true
}

// readLoop consumes hub frames (sequence-checked, keepalives
// included) and applies propagated operations locally until error.
func (a *Agent) readLoop(br *bufio.Reader) error {
	lastSeq := uint64(1) // the hub's HELLO reply
	var f Frame
	for {
		if err := ReadFrame(br, &f); err != nil {
			return err
		}
		if f.Seq != lastSeq+1 {
			a.protocolErrors.Add(1)
			return fmt.Errorf("sequence gap: got %d after %d", f.Seq, lastSeq)
		}
		lastSeq = f.Seq
		switch f.Type {
		case TInstall:
			if _, err := a.cfg.Apply.ApplyInstall(f.Key); err != nil {
				return fmt.Errorf("apply install: %w", err)
			}
			a.appliedInstalls.Add(1)
			if a.cfg.OnApply != nil {
				a.cfg.OnApply(TInstall, f.Key)
			}
		case TRemove:
			if _, err := a.cfg.Apply.ApplyRemove(f.Key); err != nil {
				return fmt.Errorf("apply remove: %w", err)
			}
			a.appliedRemoves.Add(1)
			if a.cfg.OnApply != nil {
				a.cfg.OnApply(TRemove, f.Key)
			}
		case TFlush:
			if _, err := a.cfg.Apply.ApplyFlush(); err != nil {
				return fmt.Errorf("apply flush: %w", err)
			}
			a.appliedFlushes.Add(1)
			if a.cfg.OnApply != nil {
				a.cfg.OnApply(TFlush, features.FlowKey{})
			}
		case TKeepalive:
			// Sequence bookkeeping above is the whole point.
		default:
			a.protocolErrors.Add(1)
			return fmt.Errorf("unexpected %v frame mid-session", f.Type)
		}
	}
}
