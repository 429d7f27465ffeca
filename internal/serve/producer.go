package serve

// This file is the per-lane ingest face of the runtime. A Producer is
// one RSS-style sequence lane: it owns a dense monotone sequence
// counter, its own ring of batch buffers per shard, and its own view
// of the trace clock — nothing hot is shared with other lanes, so N
// producers feed the shard workers concurrently the way N NIC queues
// feed cores. Canonical flow keys and key folds are computed here, on
// the producer side (or arrive precomputed from Replay's decode
// workers), so parsing and hashing overlap the shard workers'
// matching. A packet's fold picks its shard first, and its key is then
// written straight into the chosen batch slot, never built elsewhere
// and copied (see enqueue).

import (
	"sync/atomic"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
)

// Producer is one ingest lane. Obtain lanes from Server.Producer;
// every method must be called from one goroutine at a time per lane,
// while distinct lanes run concurrently. Each lane numbers its packets
// with its own dense monotone sequence (delivered to OnDecision as
// (lane, seq)); the lane owns its batch buffers and flush deadline, so
// one slow lane never stalls another's hand-off.
type Producer struct {
	s    *Server
	lane uint32

	// nextSeq is the lane-owned sequence counter; ingested publishes it
	// so Stats can read each lane's count from outside its goroutine.
	// It is stored just before every hand-off (flushShard) and at the
	// end of every ingest call (endCall), not per packet: a shard can
	// only count a packet after its hand-off, so Stats never sees
	// Packets + QueueDrops above Ingested.
	nextSeq  uint64
	ingested atomic.Uint64

	// Lane-owned trace-clock anchors, unix-nano. lastSeen is the
	// newest capture timestamp this lane has observed (zero until the
	// lane's first packet); it reaches the shared trace clock once per
	// ingest call and at each tick the lane broadcasts. lastFlush
	// anchors the lane's BatchFlush deadline, checked once per ingest
	// call (flushIfDue). Both are plain fields: only the lane's
	// goroutine touches them.
	lastSeen  int64
	lastFlush int64

	// rings holds the lane's batch buffers for each shard (rings[i]
	// feeds shard i).
	rings []batchRing
}

// batchRing is one lane's private buffers for one shard: bufs[i] is
// the pending batch being filled, and each hand-off moves i on. The
// shard's mailbox holds C = ⌈QueueDepth/BatchSize⌉ messages and the
// ring holds C+2 buffers, which makes reuse safe without the worker
// ever handing a buffer back. Go's memory model orders the kth receive
// on a channel of capacity C before the (k+C)th send completes, and
// the worker finishes each message before it receives the next; so
// once a send completes, the message sent C+1 sends earlier — counting
// every lane's and every control message — has been fully consumed.
// Between two hand-offs of one buffer its lane makes C+1 other sends
// to the shard, so the buffer the ring comes back to is always free
// again: a hand-off is one channel operation.
type batchRing struct {
	bufs []*pktBatch
	i    int
}

// Lane returns the lane's index — the lane value OnDecision sees for
// every packet this producer ingests.
func (p *Producer) Lane() uint32 { return p.lane }

// IngestBatch routes a slice of packets to their shards in one call.
// Every packet is copied into the lane's pending batches, so pkts is
// immediately reusable on return, and the BatchFlush deadline is
// checked once, after the last packet. It returns (len(pkts), 0, nil),
// or ErrClosed after Close. dropped is always 0: under the Drop policy
// sheds happen per batch at hand-off, after each packet has taken its
// sequence number, and are counted in Stats.QueueDrops. Lane goroutine
// only.
//
//iguard:hotpath
func (p *Producer) IngestBatch(pkts []netpkt.Packet) (accepted, dropped uint64, err error) {
	if p.s.closed.Load() {
		return 0, 0, ErrClosed
	}
	for i := range pkts {
		p.enqueue(&pkts[i], nil, features.PacketFold(&pkts[i]))
	}
	p.endCall()
	return uint64(len(pkts)), 0, nil
}

// ingestDecoded is IngestBatch for packets whose canonical flow keys
// and key folds Replay's decode workers already computed; keys[i] and
// folds[i] belong to pkts[i]. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) ingestDecoded(pkts []netpkt.Packet, keys []features.FlowKey, folds []uint32) error {
	if p.s.closed.Load() {
		return ErrClosed
	}
	for i := range pkts {
		p.enqueue(&pkts[i], &keys[i], folds[i])
	}
	p.endCall()
	return nil
}

// endCall is an ingest call's lane bookkeeping, done once per call
// rather than per packet: it publishes the lane's count and moves the
// shared trace clock to the lane's newest timestamp, then checks the
// BatchFlush deadline. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) endCall() {
	p.ingested.Store(p.nextSeq)
	p.s.advanceTrace(p.lastSeen)
	p.flushIfDue()
}

// enqueue advances the lane's clock to the packet, copies it into the
// lane's pending batch for the shard its fold picks, and hands the
// batch off when it fills. key is the packet's canonical flow key when
// a decode worker already built one, or nil: then the key is written
// from the packet's fields straight into its batch slot. Building it
// in a local and copying it there would re-read, with wide loads, a
// struct just written with narrow stores, a store-forwarding stall on
// every packet. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) enqueue(pkt *netpkt.Packet, key *features.FlowKey, fold uint32) {
	p.observe(pkt.Timestamp)
	shard := p.s.shardOf(fold)
	r := &p.rings[shard]
	b := r.bufs[r.i]
	b.pkts[b.n] = *pkt
	if key != nil {
		b.keys[b.n] = *key
	} else {
		features.CanonicalInto(&b.keys[b.n], pkt)
	}
	b.folds[b.n] = fold
	b.seqs[b.n] = p.nextSeq
	b.n++
	p.nextSeq++
	if b.n == len(b.pkts) {
		p.flushShard(shard)
	}
}

// flushShard hands the lane's pending batch for one shard to the
// worker as one mailbox operation and moves the ring on to the next
// buffer. Under the Drop policy a full mailbox sheds the whole batch,
// leaving its sequence numbers as gaps in the lane's sequence space.
// The lane's count is published first, so whatever the shard or the
// drop counter then records is already in Ingested. Lane goroutine
// only.
//
//iguard:hotpath
func (p *Producer) flushShard(shard int) {
	r := &p.rings[shard]
	b := r.bufs[r.i]
	if b.n == 0 {
		return
	}
	p.ingested.Store(p.nextSeq)
	s := p.s
	w := s.shards[shard]
	m := shardMsg{kind: msgBatch, batch: b}
	if s.cfg.Policy == Drop {
		select {
		case w.in <- m:
		default:
			w.queueDrops.Add(uint64(b.n))
			s.queueDrops.Add(uint64(b.n))
			b.n = 0 // shed in place; the buffer stays pending
			return
		}
	} else {
		w.in <- m
	}
	// The next buffer is free again (see batchRing).
	r.i++
	if r.i == len(r.bufs) {
		r.i = 0
	}
	r.bufs[r.i].n = 0
}

// flushIfDue is the lane's BatchFlush deadline: once the lane's clock
// has moved BatchFlush past its last flush point, every pending batch
// is handed off. The ingest calls check it once per call, after the
// call's packets are enqueued — not per packet — so a call whose
// packets span many BatchFlush intervals of trace time still makes one
// hand-off per shard, and the packet that crosses the deadline leaves
// with the rest. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) flushIfDue() {
	if time.Duration(p.lastSeen-p.lastFlush) >= p.s.cfg.BatchFlush {
		p.lastFlush = p.lastSeen
		p.flushPending()
	}
}

// flushPending hands the lane's pending batch for every shard off.
// Lane goroutine only (Close calls it for every lane after all
// producers have quiesced).
//
//iguard:hotpath
func (p *Producer) flushPending() {
	for i := range p.s.shards {
		p.flushShard(i)
	}
}

// Flush hands the lane's still-pending packets to their shards. It is
// the explicit companion to the BatchFlush deadline: call it when the
// stream pauses and the pending tail should be decided now (Replay
// calls it at end of stream). Lane goroutine only.
func (p *Producer) Flush() error {
	if p.s.closed.Load() {
		return ErrClosed
	}
	p.flushPending()
	return nil
}

// observe advances the lane's clock and broadcasts sweep ticks when
// the shared tick election says this lane crossed the SweepEvery
// cadence first. It runs per packet; the BatchFlush deadline and the
// shared trace clock do not (see endCall), except that a tick moves
// the shared clock to the tick. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) observe(ts time.Time) {
	s := p.s
	ns := ts.UnixNano()
	if p.lastSeen == 0 {
		// Lane's first packet: seed the shared clocks (first lane's
		// CAS wins; endCall advances the running clock) and the
		// lane-local anchors.
		if s.traceStart.CompareAndSwap(0, ns) {
			s.lastTickNS.CompareAndSwap(0, ns)
		}
		p.lastSeen = ns
		p.lastFlush = ns
		return
	}
	if ns <= p.lastSeen {
		return
	}
	p.lastSeen = ns
	if s.cfg.SweepEvery <= 0 {
		return
	}
	last := s.lastTickNS.Load()
	if time.Duration(ns-last) < s.cfg.SweepEvery {
		return
	}
	if !s.lastTickNS.CompareAndSwap(last, ns) {
		// Another lane won this tick's election and will broadcast it;
		// tick times strictly increase because only a winning CAS
		// moves the slot.
		return
	}
	s.ticks.Add(1)
	s.advanceTrace(ns)
	now := time.Unix(0, ns).UTC()
	// This lane's pending batches go first so every shard sees the
	// lane's packets in lane order relative to the tick. Other lanes'
	// pendings are theirs to flush; workers drop the rare stale tick
	// that overtakes a slower lane's earlier one (see runShard).
	p.flushPending()
	for _, w := range s.shards {
		// Ticks are never shed: they carry timeout semantics, and a
		// full queue only delays (bounded) rather than loses them.
		w.in <- shardMsg{kind: msgTick, now: now}
	}
}
