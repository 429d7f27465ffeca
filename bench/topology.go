package bench

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"iguard/internal/controller"
	"iguard/internal/experiments"
	"iguard/internal/features"
	"iguard/internal/fed"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
	"iguard/internal/serve"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

// Serving shape shared by every workload: the paper's n and δ, an
// 8192-slot bi-hash table, drop on malicious, and an 8192-entry LRU
// blacklist; batched hand-off under backpressure with trace-time sweeps.
const (
	tableSlots   = 8192
	pktThreshold = 16
	flowTimeout  = 5 * time.Second
	blacklistCap = 8192
	batchSize    = 64
	queueDepth   = 1024
	sweepEvery   = 5 * time.Second
	// chunkLen is the generator's hand-off unit: one IngestBatch call.
	chunkLen = 64
	// sampleShift samples one decision in 1<<sampleShift (by lane seq)
	// for latency and decision spans.
	sampleShift = 4
)

// Model is the trained merged whitelist every shard serves: the
// packet-level rules for early packets and the iGuard forest's
// flow-level rules.
type Model struct {
	PL, FL *rules.CompiledRuleSet
}

// TrainModel trains the paper's merged whitelist on the quick lab
// configuration's Mirai context (n=16, δ=5 s).
func TrainModel() (*Model, error) {
	ctx, err := experiments.NewLab(experiments.QuickLabConfig()).Context(traffic.Mirai)
	if err != nil {
		return nil, fmt.Errorf("bench: train model: %w", err)
	}
	return &Model{PL: ctx.PLCompiled, FL: ctx.GuardCompiled}, nil
}

// newShard builds one switch and its LRU controller. wrap, when
// non-nil, wraps the controller into the switch's digest sink.
func newShard(m *Model, wrap func(*controller.Controller) switchsim.DigestSink) (*switchsim.Switch, *controller.Controller) {
	sw := switchsim.New(switchsim.Config{
		Slots:             tableSlots,
		PktThreshold:      pktThreshold,
		Timeout:           flowTimeout,
		PLRules:           m.PL,
		FLRules:           m.FL,
		BlacklistCapacity: blacklistCap,
		DropMalicious:     true,
	})
	ctrl := controller.New(sw, blacklistCap, controller.LRU)
	if wrap != nil {
		sw.SetSink(wrap(ctrl))
	} else {
		sw.SetSink(ctrl)
	}
	return sw, ctrl
}

// Decision codes: bit 7 marks a decided packet, bits 0-2 hold the path,
// bit 3 the per-packet verdict and bit 4 the drop.
const (
	codeDecided = 0x80
	codePred    = 0x08
	codeDrop    = 0x10
)

func encodeDecision(d switchsim.Decision) uint8 {
	c := uint8(codeDecided) | uint8(d.Path)
	if d.Predicted == 1 {
		c |= codePred
	}
	if d.Dropped {
		c |= codeDrop
	}
	return c
}

// recorder collects one node's decisions for one pass in buffers sized
// before the pass starts. Each lane seq owns its own slots, and shard
// goroutines write disjoint seqs, so the buffers need no lock; they are
// read only after the server has been closed.
type recorder struct {
	codes []uint8
	shard []uint8
	// decNS holds the wall time (ns since base) of every sampled
	// decision, indexed by seq>>sampleShift.
	decNS []int64
	base  time.Time
}

func newRecorder(n int, base time.Time) *recorder {
	return &recorder{
		codes: make([]uint8, n),
		shard: make([]uint8, n),
		decNS: make([]int64, n>>sampleShift+1),
		base:  base,
	}
}

func (r *recorder) onDecision(shard int, _ uint32, seq uint64, _ *netpkt.Packet, d switchsim.Decision) {
	r.codes[seq] = encodeDecision(d)
	r.shard[seq] = uint8(shard)
	if seq&(1<<sampleShift-1) == 0 {
		r.decNS[seq>>sampleShift] = int64(time.Since(r.base))
	}
}

// node is one serving runtime fed by one stream.
type node struct {
	stream *Stream
	srv    *serve.Server
	rec    *recorder
}

// topology is everything one pass serves with: the nodes and, for the
// federated pair, the hub and one agent per node.
type topology struct {
	nodes []*node
	fed   *fedNet
}

// buildTopology builds fresh servers from the trained model (and the
// hub with connected agents when federate is set). batch is the
// servers' BatchSize.
func buildTopology(m *Model, streams []*Stream, batch int, federate bool, base time.Time, tr *Tracer) (*topology, error) {
	t := &topology{}
	if federate {
		t.fed = &fedNet{base: base, tracer: tr, announced: map[features.FlowKey]announce{}, applied: map[features.FlowKey]bool{}}
	}
	for i, s := range streams {
		rec := newRecorder(s.N, base)
		cfg := serve.Config{
			Shards:     s.Spec.Shards,
			QueueDepth: queueDepth,
			Policy:     serve.Block,
			SweepEvery: sweepEvery,
			BatchSize:  batch,
			Producers:  1,
			NewShard: func(int) serve.Shard {
				sw, ctrl := newShard(m, nil)
				return serve.Shard{Switch: sw, Controller: ctrl}
			},
			OnDecision: rec.onDecision,
		}
		if federate && i == 0 {
			// Node A announces its local installs; node B only
			// receives, so node A's decisions never depend on the hub.
			cfg.OnBlacklist = t.fed.onBlacklist
		}
		srv, err := serve.New(cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, &node{stream: s, srv: srv, rec: rec})
	}
	if federate {
		if err := t.fed.start(t.nodes[0].srv, t.nodes[1].srv); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// close tears everything down: agents first (they apply into the
// servers), then servers, then the hub. Idempotent.
func (t *topology) close() {
	if t.fed != nil {
		t.fed.stopAgents()
	}
	for _, n := range t.nodes {
		// Close is idempotent and only fails on programming errors; a
		// pass that already closed its servers checked them itself.
		_ = n.srv.Close()
	}
	if t.fed != nil {
		t.fed.stopHub()
	}
}

// announce is node A's record of one locally decided install.
type announce struct {
	ns   int64
	span int32
}

// fedNet is the federated pair's control plane: a loopback hub, node A's
// announcing agent and node B's applying agent, with node B's applies
// timed by wrapping its fed.Applier.
type fedNet struct {
	base   time.Time
	tracer *Tracer

	ln      net.Listener
	hub     *fed.Hub
	hubDone chan error
	hubOnce sync.Once
	agentA  *fed.Agent
	agentB  *fed.Agent

	mu        sync.Mutex
	announced map[features.FlowKey]announce
	applied   map[features.FlowKey]bool
	// propUS holds, per key, A's install → B's apply return (µs);
	// applyUS every ApplyInstall call's duration at B (µs).
	propUS  []float64
	applyUS []float64
	applies int
}

// Queue depths large enough that a benchmark pass never sheds an
// announcement or kicks node B: a shed key would never reach B and fail
// the pass's propagation check.
const (
	fedOutboxDepth   = 1 << 14
	fedOutboundDepth = 1 << 14
)

func (f *fedNet) start(a, b *serve.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("bench: hub listen: %w", err)
	}
	f.ln = ln
	f.hub = fed.NewHub(ln, fed.HubConfig{NodeID: 100, Keepalive: -1, OutboundDepth: fedOutboundDepth})
	f.hubDone = make(chan error, 1)
	go func() { f.hubDone <- f.hub.Serve() }()
	addr := ln.Addr().String()
	f.agentA, err = fed.NewAgent(fed.AgentConfig{Addr: addr, NodeID: 1, Apply: a, OutboxDepth: fedOutboxDepth, Keepalive: -1})
	if err != nil {
		return err
	}
	f.agentB, err = fed.NewAgent(fed.AgentConfig{Addr: addr, NodeID: 2, Apply: timedApplier{f: f, srv: b}, OutboxDepth: fedOutboxDepth, Keepalive: -1})
	if err != nil {
		return err
	}
	f.agentA.Start()
	f.agentB.Start()
	deadline := time.Now().Add(5 * time.Second)
	for f.hub.Stats().Nodes < 2 || !f.agentA.Stats().Connected || !f.agentB.Stats().Connected {
		if time.Now().After(deadline) {
			return errors.New("bench: agents did not connect to the hub within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// onBlacklist is node A's serve observer: record and announce every
// local install. It runs on shard goroutines.
func (f *fedNet) onBlacklist(_ int, ev controller.Event) {
	if ev.Op != controller.OpInstall {
		return
	}
	now := int64(time.Since(f.base))
	f.mu.Lock()
	if _, ok := f.announced[ev.Key]; !ok {
		f.announced[ev.Key] = announce{ns: now, span: f.tracer.Record("announce", 0, now, now, 0)}
	}
	f.mu.Unlock()
	f.agentA.Announce(ev.Key)
}

// missing counts announced keys node B has not applied yet.
func (f *fedNet) missing() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for k := range f.announced {
		if !f.applied[k] {
			n++
		}
	}
	return n
}

// awaitPropagation waits until node B has applied every key node A
// announced, or the timeout passes; it returns how many are missing.
func (f *fedNet) awaitPropagation(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		m := f.missing()
		if m == 0 || time.Now().After(deadline) {
			return m
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (f *fedNet) stopAgents() {
	if f.agentA != nil {
		f.agentA.Close()
	}
	if f.agentB != nil {
		f.agentB.Close()
	}
}

func (f *fedNet) stopHub() {
	f.hubOnce.Do(func() {
		if f.hub == nil {
			if f.ln != nil {
				f.ln.Close()
			}
			return
		}
		// Close's error is the listener's own "use of closed network
		// connection"; the hub has no state left to lose.
		_ = f.hub.Close()
		<-f.hubDone
	})
}

// timedApplier is node B's fed.Applier: it times each ApplyInstall and
// matches it to node A's announcement of the same key.
type timedApplier struct {
	f   *fedNet
	srv *serve.Server
}

func (a timedApplier) ApplyInstall(key features.FlowKey) (bool, error) {
	f := a.f
	start := int64(time.Since(f.base))
	ok, err := a.srv.ApplyInstall(key)
	end := int64(time.Since(f.base))
	k := key.Canonical()
	f.mu.Lock()
	f.applies++
	f.applyUS = append(f.applyUS, float64(end-start)/1e3)
	if an, seen := f.announced[k]; seen && !f.applied[k] {
		f.applied[k] = true
		f.propUS = append(f.propUS, float64(end-an.ns)/1e3)
		f.tracer.Record("apply", an.span, start, end, 0)
	}
	f.mu.Unlock()
	return ok, err
}

func (a timedApplier) ApplyRemove(key features.FlowKey) (bool, error) {
	return a.srv.ApplyRemove(key)
}

func (a timedApplier) ApplyFlush() (int, error) { return a.srv.ApplyFlush() }
