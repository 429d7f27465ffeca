// Package serve is iGuard's streaming detection runtime: the layer
// between a packet source and the deployed data plane that the library
// itself does not provide. A Server hash-partitions packets by
// canonical flow key onto N shard workers, each owning a private
// switchsim.Switch + controller.Controller pair — the switch's
// single-goroutine ownership contract is preserved by construction, so
// the hot path takes no locks. Shards are fed through bounded channels
// with a configurable backpressure policy (block the producer, or
// count-and-drop), swept for flow timeouts on a trace-time cadence so
// pcap replays stay deterministic, and support atomic whitelist
// hot-swap: a new model's rules replace the running ones between
// packets, no restart, with flow state and blacklist surviving.
//
// The ingest→decide path is batch-oriented end to end, at every
// Config.BatchSize: the producer accumulates each shard's packets into
// a per-shard batch buffer (packets are copied by value, so the
// caller's read buffer is immediately reusable) and hands the whole
// batch to the worker as one mailbox operation; the worker answers it
// with one switchsim.ProcessBatch pass; BatchSize 1 is a batch of one
// through the same code. A trace-time flush deadline
// (Config.BatchFlush), checked once per ingest call, bounds how long
// a partial batch may sit while the clock advances, so low-rate flows
// still see bounded decision latency, while a call whose packets span
// many deadlines still makes one hand-off per shard. Each lane reuses
// a fixed ring of batch buffers per shard — the steady-state path
// touches the heap exactly never, on both sides of the channel.
//
// Ingest is multi-producer, RSS-style: Config.Producers opens N
// sequence lanes, each owned by one producer goroutine (Producer).
// Every lane numbers its packets with its own dense monotone sequence,
// computes canonical keys and folds producer-side, and fills private
// per-shard batch buffers — producers share nothing hot, so ingest
// scales with cores the way receive-side scaling distributes NIC
// queues. Decisions carry (lane, seq): totally ordered within a lane,
// deliberately unordered across lanes (see OnDecision).
//
// There is one ingest face per role. Server.Replay pumps a whole
// Source through every lane, with decode workers computing keys and
// folds off the lanes; a Producer's IngestBatch and Flush drive one
// lane by hand.
//
// Concurrency contract: each Producer (and Replay, which occupies
// every lane) must be driven from one goroutine at a time, but
// distinct lanes run concurrently. Swap and Stats are control-plane
// operations for one supervising goroutine, and the Apply* calls
// (ApplyInstall, ApplyRemove, ApplyFlush) are safe from any goroutine;
// all may run concurrently with producers (they are barriers relative to
// batches already handed off, not to packets still pending in
// producer-owned buffers — a lane's pending batch flushes on its own
// BatchSize/BatchFlush cadence or via its Flush). Close requires every
// producer goroutine to have quiesced first (join them before calling
// it); it then drains every lane's pending batches and every shard
// queue. Decision callbacks run on shard goroutines — serially within
// a shard, concurrently across shards; the packet pointer an observer
// receives is only valid for the duration of the callback.
package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iguard/internal/controller"
	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
	"iguard/internal/switchsim"
)

// shardSeed salts the flow-key hash used for shard selection. It is
// deliberately distinct from the switch's two table seeds so that the
// shard partition is independent of slot indexing: two flows that
// collide in a switch table do not systematically land on one shard.
const shardSeed uint32 = 0x5eed51ab

// DropPolicy selects what a hand-off does when a shard's queue is
// full.
type DropPolicy int

const (
	// Block applies backpressure: the hand-off waits for queue space.
	// No packet is ever lost; the producer runs at the shards' pace.
	Block DropPolicy = iota
	// Drop sheds the whole batch, counting its packets as queue drops,
	// and moves on — the line-rate answer when the source cannot be
	// stalled. Shed packets keep their sequence numbers as gaps and
	// stay counted in Stats.Ingested, so Packets + QueueDrops ==
	// Ingested once the server has drained.
	Drop
)

// String implements fmt.Stringer.
func (p DropPolicy) String() string {
	if p == Drop {
		return "drop"
	}
	return "block"
}

// ParseDropPolicy converts a flag value ("block" or "drop").
func ParseDropPolicy(s string) (DropPolicy, error) {
	switch strings.ToLower(s) {
	case "block":
		return Block, nil
	case "drop":
		return Drop, nil
	}
	return Block, fmt.Errorf("serve: unknown drop policy %q (want block or drop)", s)
}

// Shard is one worker's private data-plane/control-plane pair. The
// server takes ownership: after New, only the shard's worker goroutine
// touches the Switch. That exclusivity is also what makes the packet
// hot path allocation-free here: the Switch's reusable feature-vector
// scratch buffers are per-shard by construction, never shared.
type Shard struct {
	Switch     *switchsim.Switch
	Controller *controller.Controller
}

// Config parameterises New.
type Config struct {
	// Shards is the worker count; packets of one flow always land on
	// the same shard. Defaults to 1.
	Shards int
	// QueueDepth bounds each shard's input channel. Defaults to 1024.
	// The channel holds ⌈QueueDepth/BatchSize⌉ batches. A batch
	// carries up to one ingest call's worth of its shard's packets, so
	// the channel buffers close to QueueDepth packets when calls give
	// each shard about BatchSize packets, and proportionally fewer for
	// smaller calls or more shards.
	QueueDepth int
	// Policy is the backpressure policy when a queue is full.
	Policy DropPolicy
	// SweepEvery, when positive, broadcasts a timeout sweep to every
	// shard each time the trace clock (the maximum capture timestamp
	// ingested) advances by this much. Sweeps ride the same queues as
	// packets, so a replayed trace produces the same sweep points on
	// every run. Zero disables periodic sweeps.
	SweepEvery time.Duration
	// BatchSize is the most packets a lane accumulates per shard
	// before handing them off as one mailbox message, answered by one
	// switchsim.ProcessBatch pass. Defaults to DefaultBatchSize; 1
	// hands every packet off alone. Decisions are identical at every
	// size (the batch pipeline is the per-packet pipeline with the
	// setup amortised); under the Drop policy a full queue sheds whole
	// batches at hand-off.
	BatchSize int
	// BatchFlush bounds, in trace time, how long a partial batch may
	// wait for more packets. It is checked once per ingest call
	// (IngestBatch, or each batch Replay reads), after the call's
	// packets are enqueued: when the lane's trace clock has moved at
	// least BatchFlush past its last flush point, every pending batch
	// of the lane — the call's own packets included — is handed off
	// before the call returns. A call whose packets span many BatchFlush
	// intervals thus makes one hand-off per shard, not one per
	// interval, and under the Drop policy a shed batch is call-sized
	// (at most BatchSize packets). Defaults to 1ms. Like every
	// timeout in the runtime it is driven by capture timestamps, not
	// the wall clock, so replays stay deterministic; Flush gives the
	// producer an explicit hand-off point (Replay calls it at end of
	// stream).
	BatchFlush time.Duration
	// Producers is the ingest lane count: New builds one Producer per
	// lane (Server.Producer(i) hands them out; Replay drives all of
	// them). Each lane is driven by one goroutine; distinct lanes run
	// concurrently. Defaults to 1, which is byte-identical to the
	// single-producer runtime.
	Producers int
	// NewShard builds worker i's private pair. Required. It is called
	// Shards times from New, before any worker starts.
	NewShard func(shard int) Shard
	// OnDecision, when non-nil, observes every processed packet.
	//
	// Ordering contract: seq is dense and monotone within its lane
	// (lane l's packets are numbered 0,1,2,… in that lane's ingest
	// order, with gaps only where the Drop policy shed), and decisions
	// of one lane's packets on one shard arrive in lane order. Across
	// lanes there is NO order: two producers race to their shards
	// exactly like two RSS queues race to cores, so (lane, seq) — not
	// seq alone — identifies a packet. With Producers == 1 this
	// degenerates to the old global contract (lane is always 0, seq is
	// globally dense). Called on shard goroutines — serially within a
	// shard, concurrently across shards.
	OnDecision func(shard int, lane uint32, seq uint64, p *netpkt.Packet, d switchsim.Decision)
	// OnBlacklist, when non-nil, observes blacklist transitions the
	// shard controllers decide locally (installs and capacity
	// evictions; see controller.SetObserver for exactly which
	// operations fire). It runs on shard goroutines and must be cheap
	// and non-blocking — the federation agent's Announce, a counter
	// bump — because it sits behind the digest path. Externally
	// applied operations (ApplyInstall/ApplyRemove/ApplyFlush) do not
	// fire it, which keeps a federated fleet loop-free.
	OnBlacklist func(shard int, ev controller.Event)
	// Now supplies wall time for Stats' elapsed/pps figures. The
	// runtime itself never consults the wall clock (all timeout logic
	// runs on capture timestamps), so this is nil-safe: without it,
	// rates are reported over trace time instead.
	Now func() time.Time
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Producers <= 0 {
		c.Producers = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchFlush <= 0 {
		c.BatchFlush = time.Millisecond
	}
	return c
}

// DefaultBatchSize is the hand-off batch size a zero Config.BatchSize
// takes, and the default of the library facade and both daemons.
const DefaultBatchSize = 64

// MaxProducers bounds Config.Producers: lanes cost per-shard batch
// buffers and per-lane bookkeeping, and no machine feeds thousands of
// concurrent ingest goroutines usefully, so beyond this it is a
// configuration error.
const MaxProducers = 1 << 10

// MaxBatchSize bounds Config.BatchSize: beyond this, batch buffers
// stop fitting in cache and the flush deadline dominates latency, so
// larger values are a configuration error, not a tuning knob.
const MaxBatchSize = 1 << 16

// Validate reports every configuration error at once (errors.Join),
// mirroring the library facade's validators. New calls it; callers
// constructing configs programmatically can call it early for the
// full list.
func (c Config) Validate() error {
	var errs []error
	add := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("serve: config: "+format, args...))
	}
	if c.NewShard == nil {
		add("NewShard is required")
	}
	if c.Shards < 0 {
		add("Shards is %d, want >= 0 (0 means default)", c.Shards)
	}
	if c.QueueDepth < 0 {
		add("QueueDepth is %d, want >= 0 (0 means default)", c.QueueDepth)
	}
	if c.BatchSize < 0 {
		add("BatchSize is %d, want >= 0 (0 means default)", c.BatchSize)
	}
	if c.BatchSize > MaxBatchSize {
		add("BatchSize is %d, want <= %d", c.BatchSize, MaxBatchSize)
	}
	if c.BatchFlush < 0 {
		add("BatchFlush is %v, want >= 0 (0 means default)", c.BatchFlush)
	}
	if c.Producers < 0 {
		add("Producers is %d, want >= 0 (0 means default)", c.Producers)
	}
	if c.Producers > MaxProducers {
		add("Producers is %d, want <= %d", c.Producers, MaxProducers)
	}
	return errors.Join(errs...)
}

// message kinds delivered to shard workers.
const (
	msgBatch = iota
	msgTick
	msgSwap
	msgStats
	msgFlush
	msgInstall
	msgRemove
)

// shardMsg is one mailbox entry: a packet batch, a sweep tick, a rule
// swap, or a stats request. Control messages share the packet queue so
// they serialise naturally between batches.
type shardMsg struct {
	kind  int
	batch *pktBatch
	now   time.Time // tick
	pl    *rules.CompiledRuleSet
	fl    *rules.CompiledRuleSet
	key   features.FlowKey  // install/remove target, canonical
	fold  uint32            // key's FoldCanonical value
	ack   chan<- ShardStats // swap + stats replies
	ackN  chan<- int        // flush + install/remove replies
}

// shardWorker is the per-shard state. The worker goroutine (runShard,
// the //iguard:owner(shard) root) owns sw, ctrl, swaps, and final;
// iguard-vet's shardown analyzer enforces that statically. id and in
// are immutable after construction and shared by design; queueDrops is
// written by the producer and read by the worker, hence atomic.
type shardWorker struct {
	id int
	//iguard:ownedby(shard)
	sw *switchsim.Switch
	//iguard:ownedby(shard)
	ctrl       *controller.Controller
	in         chan shardMsg
	queueDrops atomic.Uint64
	//iguard:ownedby(shard)
	swaps int
	//iguard:ownedby(shard)
	final ShardStats

	// out is the worker's decision scratch for ProcessBatch. batches
	// counts delivered batches (worker-owned, snapshotted like swaps).
	// The batch buffers themselves belong to the producer lanes (see
	// batchRing); the worker only reads a batch between its receive
	// and its next one.
	//iguard:ownedby(shard)
	out []switchsim.Decision
	//iguard:ownedby(shard)
	batches uint64
	// lastSweep drops stale sweep ticks: with concurrent lanes, the
	// producer that won a tick's CAS may deliver it after a later
	// lane's tick already reached this shard, and SweepTimeouts
	// requires non-decreasing time. Single-lane ticks arrive in order,
	// so the guard never fires there.
	//iguard:ownedby(shard)
	lastSweep time.Time
}

// pktBatch is one per-shard hand-off unit: up to BatchSize packets
// stored by value (enqueueing copies, decoupling the batch from the
// producer's read buffer) with their canonical flow keys and key
// folds — computed once for routing, reused by ProcessBatch — and
// ingest sequence numbers. A batch belongs to exactly one lane's ring
// for one shard. n is the fill level; the backing slices are allocated
// once in New and never grow.
type pktBatch struct {
	pkts  []netpkt.Packet
	keys  []features.FlowKey
	folds []uint32
	seqs  []uint64
	lane  uint32
	n     int
}

func newBatch(size int, lane uint32) *pktBatch {
	return &pktBatch{
		pkts:  make([]netpkt.Packet, size),
		keys:  make([]features.FlowKey, size),
		folds: make([]uint32, size),
		seqs:  make([]uint64, size),
		lane:  lane,
	}
}

// ErrClosed is returned by operations on a closed server.
var ErrClosed = errors.New("serve: server closed")

// Server is the sharded streaming runtime. Build with New; drive with
// Replay or a Producer's IngestBatch; swap models with Swap; observe
// with Stats; drain and stop with Close.
type Server struct {
	cfg    Config
	shards []*shardWorker
	wg     sync.WaitGroup

	closed  atomic.Bool
	drained atomic.Bool

	// ctlMu fences the federation apply surface (ApplyInstall,
	// ApplyRemove, ApplyFlush — the only operations callable from
	// arbitrary goroutines) against Close: appliers hold the read
	// side across their closed-check and mailbox sends, and Close
	// holds the write side while closing the mailboxes, so an applier
	// can never send on a closed channel. The packet path never
	// touches it.
	ctlMu sync.RWMutex

	// producers holds the ingest lanes, built in New (lane i at index
	// i). The slice is immutable after New.
	producers  []*Producer
	queueDrops atomic.Uint64

	// Trace clock, unix-nano encoded and CAS-advanced so concurrent
	// lanes and Stats can all touch it. Zero means "no packet seen
	// yet"; traceNow only moves forward (advanceTrace). lastTickNS is
	// the sweep-tick election slot: the lane whose CAS moves it wins
	// the tick and broadcasts alone, so tick times strictly increase
	// even with racing lanes.
	traceStart atomic.Int64
	traceNow   atomic.Int64
	lastTickNS atomic.Int64
	ticks      atomic.Uint64

	wallStart time.Time // set in New when cfg.Now != nil
}

// New validates the config, builds the shards, and starts the workers.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	if cfg.Now != nil {
		s.wallStart = cfg.Now()
	}
	// The mailbox is measured in batches, preserving the configured
	// packet-count buffering; each lane's ring per shard holds two
	// buffers more than the mailbox (see batchRing).
	queue := (cfg.QueueDepth + cfg.BatchSize - 1) / cfg.BatchSize
	for i := 0; i < cfg.Shards; i++ {
		sh := cfg.NewShard(i)
		if sh.Switch == nil {
			return nil, fmt.Errorf("serve: NewShard(%d) returned a nil Switch", i)
		}
		w := &shardWorker{id: i, sw: sh.Switch, ctrl: sh.Controller, in: make(chan shardMsg, queue), out: make([]switchsim.Decision, cfg.BatchSize)}
		if cfg.OnBlacklist != nil && sh.Controller != nil {
			// Wired before any worker starts, so the observer is
			// visible to every digest the shard ever delivers.
			shard := i
			sh.Controller.SetObserver(func(ev controller.Event) { cfg.OnBlacklist(shard, ev) })
		}
		s.shards = append(s.shards, w)
	}
	for lane := uint32(0); lane < uint32(cfg.Producers); lane++ {
		p := &Producer{s: s, lane: lane, rings: make([]batchRing, len(s.shards))}
		for i := range p.rings {
			bufs := make([]*pktBatch, queue+2)
			for j := range bufs {
				bufs[j] = newBatch(cfg.BatchSize, lane)
			}
			p.rings[i].bufs = bufs
		}
		s.producers = append(s.producers, p)
	}
	s.wg.Add(len(s.shards))
	for _, w := range s.shards {
		go s.runShard(w)
	}
	return s, nil
}

// Producer returns ingest lane i. Each lane must be driven by one
// goroutine at a time; distinct lanes may run concurrently.
func (s *Server) Producer(i int) *Producer { return s.producers[i] }

// Producers returns the configured lane count.
func (s *Server) Producers() int { return len(s.producers) }

// Shards returns the configured shard count.
func (s *Server) Shards() int { return len(s.shards) }

// runShard is the worker loop: it owns the shard's switch, so every
// interaction with it — packets, sweeps, swaps, stats snapshots — is
// a mailbox message. Exits when the mailbox closes (Close), after
// draining everything already queued. The loop is the serving hot
// path: the packet and tick arms are statically allocation-free, with
// the decision observer and the control-plane arms factored out as the
// //iguard:coldpath boundaries.
//
//iguard:hotpath
//iguard:owner(shard)
func (s *Server) runShard(w *shardWorker) {
	defer s.wg.Done()
	for m := range w.in {
		switch m.kind {
		case msgBatch:
			b := m.batch
			w.sw.ProcessBatch(b.pkts[:b.n], b.keys[:b.n], b.folds[:b.n], w.out[:b.n])
			for i := 0; i < b.n; i++ {
				s.notifyDecision(w, b.lane, b.seqs[i], &b.pkts[i], w.out[i])
			}
			w.batches++
		case msgTick:
			// Racing lanes can deliver an older tick after a newer one
			// (the election orders tick *times*, not mailbox arrivals);
			// SweepTimeouts wants a non-decreasing clock, so drop stale
			// ones.
			if m.now.After(w.lastSweep) {
				w.lastSweep = m.now
				w.sw.SweepTimeouts(m.now)
			}
		default:
			s.handleControl(w, m)
		}
	}
	w.final = w.snapshot()
}

// notifyDecision hands one decision to the configured observer. Like
// switchsim's digest sink, this is an observer boundary: it fires per
// packet, but what the callback allocates is the observer's contract,
// not the shard loop's — exactly the seam the runtime alloc test pins
// with a no-op observer.
//
//iguard:coldpath observer boundary; the callback's cost belongs to the observer
func (s *Server) notifyDecision(w *shardWorker, lane uint32, seq uint64, p *netpkt.Packet, d switchsim.Decision) {
	if s.cfg.OnDecision != nil {
		s.cfg.OnDecision(w.id, lane, seq, p, d)
	}
}

// handleControl executes one control-plane mailbox message on the
// worker goroutine, preserving the switch's ownership contract.
//
//iguard:coldpath control messages are per operator action, not per packet
func (s *Server) handleControl(w *shardWorker, m shardMsg) {
	switch m.kind {
	case msgSwap:
		w.sw.SetRules(m.pl, m.fl)
		w.swaps++
		if m.ack != nil {
			m.ack <- w.snapshot()
		}
	case msgStats:
		m.ack <- w.snapshot()
	case msgFlush:
		n := 0
		if w.ctrl != nil {
			// Flush's data-plane removals land on this goroutine,
			// honouring the switch's ownership contract.
			n = w.ctrl.Flush()
		}
		m.ackN <- n
	case msgInstall:
		// Externally decided install (the federation apply path):
		// through the controller when the shard has one, so capacity
		// accounting and eviction policy see the entry; straight to
		// the switch otherwise.
		n := 0
		if w.ctrl != nil {
			if w.ctrl.Install(m.key) {
				n = 1
			}
		} else if w.sw.InstallBlacklist(m.key, m.fold) {
			n = 1
		}
		m.ackN <- n
	case msgRemove:
		n := 0
		if w.ctrl != nil {
			if w.ctrl.Remove(m.key) {
				n = 1
			}
		} else {
			w.sw.RemoveBlacklist(m.key, m.fold)
		}
		m.ackN <- n
	}
}

// snapshot captures the shard's counters. Worker goroutine only.
//
//iguard:coldpath runs on stats/swap requests and at drain, not per packet
func (w *shardWorker) snapshot() ShardStats {
	st := ShardStats{
		Shard:        w.id,
		Switch:       w.sw.Counters,
		ActiveFlows:  w.sw.ActiveFlows(),
		BlacklistLen: w.sw.BlacklistLen(),
		AvgLatency:   w.sw.AvgLatency(),
		QueueDrops:   w.queueDrops.Load(),
		Swaps:        w.swaps,
		Batches:      w.batches,
	}
	if w.ctrl != nil {
		st.Controller = w.ctrl.Stats()
	}
	return st
}

// shardOf maps a canonical flow key's fold to its owning shard.
//
//iguard:hotpath
func (s *Server) shardOf(fold uint32) int {
	return int(features.BiHashFold(fold, shardSeed) % uint32(len(s.shards)))
}

// advanceTrace moves the shared trace clock forward to ns. A
// monotone-max CAS loop: concurrent lanes race freely, the clock never
// goes backwards, and a lone lane pays one load plus (at most) one
// uncontended CAS — the same cost profile as the old single-producer
// store.
//
//iguard:hotpath
func (s *Server) advanceTrace(ns int64) {
	for {
		cur := s.traceNow.Load()
		if ns <= cur {
			return
		}
		if s.traceNow.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Swap atomically replaces the whitelist on every shard: each worker
// applies the new rule sets between two packets, so no packet ever
// sees a half-swapped table, and nothing is dropped or misrouted by
// the swap itself. Flow state and blacklists survive. Swap returns
// once every shard has applied the new rules (the acks double as a
// barrier), making "the fleet now serves model X" a simple
// happens-after. It is a barrier relative to batches already handed
// off, not to packets still pending in producer-owned batch buffers
// (it cannot touch another goroutine's lane) — those flush on their
// lanes' own BatchSize/BatchFlush cadence and are decided under the
// new rules. Supervisor goroutine only; safe concurrently with
// producers.
func (s *Server) Swap(pl, fl *rules.CompiledRuleSet) error {
	if s.closed.Load() {
		return ErrClosed
	}
	ack := make(chan ShardStats, len(s.shards))
	for _, w := range s.shards {
		w.in <- shardMsg{kind: msgSwap, pl: pl, fl: fl, ack: ack}
	}
	for range s.shards {
		<-ack
	}
	return nil
}

// ApplyInstall installs an externally decided blacklist entry — one
// propagated from another switch by the federation hub — on the key's
// owning shard, through that shard's controller so capacity accounting
// and eviction policy apply. It returns once the entry is live (the
// mailbox ack is a barrier), with applied reporting whether it was
// newly installed. Unlike the supervisor-only control plane, the
// Apply* surface is safe from any goroutine (the federation agent's
// reader calls it concurrently with the producer); it does not touch
// producer-owned state, so pending batched packets ingested before the
// call may still be decided under the pre-install table — the
// federation's eventual-consistency model, not an ordering bug.
func (s *Server) ApplyInstall(key features.FlowKey) (applied bool, err error) {
	return s.applyKey(msgInstall, key)
}

// ApplyRemove withdraws an externally decided blacklist entry from the
// key's owning shard; the counterpart of ApplyInstall with the same
// any-goroutine contract. applied reports whether the entry was
// present on a controller-backed shard.
func (s *Server) ApplyRemove(key features.FlowKey) (applied bool, err error) {
	return s.applyKey(msgRemove, key)
}

// applyKey routes one install/remove to the owning shard and waits for
// its ack.
func (s *Server) applyKey(kind int, key features.FlowKey) (bool, error) {
	key = key.Canonical()
	fold := key.FoldCanonical()
	w := s.shards[s.shardOf(fold)]
	ack := make(chan int, 1)
	s.ctlMu.RLock()
	if s.closed.Load() {
		s.ctlMu.RUnlock()
		return false, ErrClosed
	}
	// The send stays inside the read lock on purpose: Close takes the
	// write lock before stopping the workers, so holding ctlMu across
	// the send is exactly what guarantees the mailbox is still drained.
	// The block is bounded by the shard's queue depth, not indefinite.
	w.in <- shardMsg{kind: kind, key: key, fold: fold, ackN: ack} //iguard:allow(lockcheck) send-under-RLock is the Close fence; bounded by queue depth
	s.ctlMu.RUnlock()
	// The ack arrives even if Close runs now: workers drain their
	// mailboxes to completion before exiting.
	return <-ack == 1, nil
}

// ApplyFlush withdraws every blacklist entry on every shard and
// returns the total removed once every shard has flushed — the apply
// path for a fleet-wide FLUSH, and the companion to Swap when the
// replacement model redefines "malicious" and verdicts issued under
// the old rules should not keep blocking traffic. Like the other
// Apply* calls it is safe from any goroutine, and a barrier only
// relative to batches already handed off: packets still waiting in
// producer-side batches may re-install entries after it returns, which
// is the same eventual consistency the rest of the federation surface
// accepts.
func (s *Server) ApplyFlush() (int, error) {
	ack := make(chan int, len(s.shards))
	s.ctlMu.RLock()
	if s.closed.Load() {
		s.ctlMu.RUnlock()
		return 0, ErrClosed
	}
	for _, w := range s.shards {
		// Same Close fence as applyKey: the read lock must span the
		// sends so the workers are still draining when they land.
		w.in <- shardMsg{kind: msgFlush, ackN: ack} //iguard:allow(lockcheck) send-under-RLock is the Close fence; bounded by queue depth
	}
	s.ctlMu.RUnlock()
	total := 0
	for range s.shards {
		total += <-ack
	}
	return total, nil
}

// Close stops the intake, drains every shard queue to completion, and
// stops the workers. Idempotent. Supervisor goroutine only, and every
// producer goroutine must have quiesced first (join them before
// calling); Close then hands off every lane's pending batches — no
// buffered packet is ever stranded undecided — and after it returns,
// ingest and Swap return ErrClosed and Stats serves the final
// snapshot.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Producers are quiesced (the caller's contract), so their
	// lane-owned pendings are safe to drain from here.
	for _, p := range s.producers {
		p.flushPending()
	}
	// The write lock waits out any applier that saw closed==false and
	// is still sending; new appliers observe closed==true. Only then
	// is closing the mailboxes safe.
	s.ctlMu.Lock()
	for _, w := range s.shards {
		close(w.in)
	}
	s.ctlMu.Unlock()
	s.wg.Wait()
	s.drained.Store(true)
	return nil
}

// Stats aggregates a consistent-enough view across shards: on a live
// server each shard answers a stats request through its mailbox (so
// the snapshot reflects that shard's state at its current queue
// position); on a closed server the final drained snapshots are
// served. Packets still pending in producer-owned batch buffers are
// counted as ingested, once the ingest call that took them has
// returned, but not yet as processed — they flush on their lanes' own
// cadence, not here (Stats cannot touch another goroutine's lane). A
// lane publishes its count before each hand-off, so Packets +
// QueueDrops never exceeds Ingested. Supervisor goroutine only; safe
// concurrently with producers.
func (s *Server) Stats() Stats {
	per := make([]ShardStats, len(s.shards))
	if s.drained.Load() {
		for i, w := range s.shards {
			// Safe despite the shard ownership rule: drained is only set
			// after wg.Wait() returns in Close, so every worker's final
			// write happens-before this read.
			per[i] = w.final //iguard:allow(shardown) drained.Load() after wg.Wait() orders the final write before this read
		}
	} else {
		ack := make(chan ShardStats, len(s.shards))
		for _, w := range s.shards {
			w.in <- shardMsg{kind: msgStats, ack: ack}
		}
		for range s.shards {
			st := <-ack
			per[st.Shard] = st
		}
	}
	return s.aggregate(per)
}
