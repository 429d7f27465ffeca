package serve

// This file is the per-lane ingest face of the runtime. A Producer is
// one RSS-style sequence lane: it owns a dense monotone sequence
// counter, its own per-shard pending batch buffers, and its own view
// of the trace clock — nothing hot is shared with other lanes, so N
// producers feed the shard workers concurrently the way N NIC queues
// feed cores. Canonical flow keys and key folds are computed here, on
// the producer side (or accepted precomputed via IngestDecoded, the
// hand-off ParallelBatchSource uses), so parsing and hashing overlap
// the shard workers' matching.

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
)

// ErrDecodedLenMismatch is returned by IngestDecoded when the packet,
// key, and fold slices disagree in length. (A static error: the
// decoded ingest path is a hot path and must not allocate to fail.)
var ErrDecodedLenMismatch = errors.New("serve: IngestDecoded: pkts, keys, and folds must have equal lengths")

// Producer is one ingest lane. Obtain lanes from Server.Producer;
// every method must be called from one goroutine at a time per lane,
// while distinct lanes run concurrently. Each lane numbers its packets
// with its own dense monotone sequence (delivered to OnDecision as
// (lane, seq)); the lane owns its pending batch buffers and flush
// deadline, so one slow lane never stalls another's hand-off.
type Producer struct {
	s    *Server
	lane uint32

	// nextSeq is the lane-owned sequence counter; ingested mirrors it
	// (one atomic store per packet instead of a load + RMW pair) so
	// Stats can read each lane's count from outside its goroutine.
	nextSeq  uint64
	ingested atomic.Uint64

	// Lane-owned trace-clock anchors, unix-nano. lastSeen is the
	// newest capture timestamp this lane has observed (zero until the
	// lane's first packet); lastFlush anchors the lane's BatchFlush
	// deadline, checked once per ingest call (flushIfDue). Both are
	// plain fields: only the lane's goroutine touches them.
	lastSeen  int64
	lastFlush int64

	// pending is the lane's private fill buffer for each shard
	// (pending[i] feeds shard i); nil when batching is off. Buffers
	// recycle through the shards' shared free pools, whose capacity
	// covers one pending per lane (see New).
	pending []*pktBatch
}

// Lane returns the lane's index — the lane value OnDecision sees for
// every packet this producer ingests.
func (p *Producer) Lane() uint32 { return p.lane }

// Ingest routes one packet to its flow's shard. It returns (true, nil)
// when the packet was queued (or, in batch mode, copied into its
// shard's pending batch — the caller's packet is then immediately
// reusable), (false, nil) when the Drop policy shed it, and (false,
// ErrClosed) after Close. In unbatched mode the packet must not be
// mutated by the caller afterwards. In batch mode under the Drop
// policy, sheds happen per batch at hand-off and are reported via
// Stats.QueueDrops, not this return. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) Ingest(pkt *netpkt.Packet) (bool, error) {
	s := p.s
	if s.closed.Load() {
		return false, ErrClosed
	}
	p.observe(pkt.Timestamp)
	key, fold := features.CanonicalFoldOf(pkt)
	shard := s.shardOf(fold)
	if s.batching() {
		p.enqueue(shard, pkt, key, fold)
		p.flushIfDue()
		return true, nil
	}
	return p.sendPacket(shard, pkt)
}

// sendPacket queues one packet on the unbatched per-packet path,
// stamping it with the lane's next sequence number.
//
//iguard:hotpath
func (p *Producer) sendPacket(shard int, pkt *netpkt.Packet) (bool, error) {
	s := p.s
	w := s.shards[shard]
	m := shardMsg{kind: msgPacket, pkt: pkt, lane: p.lane, seq: p.nextSeq}
	if s.cfg.Policy == Drop {
		select {
		case w.in <- m:
		default:
			w.queueDrops.Add(1)
			s.queueDrops.Add(1)
			return false, nil
		}
	} else {
		w.in <- m
	}
	p.nextSeq++
	p.ingested.Store(p.nextSeq)
	return true, nil
}

// enqueue copies one packet into the lane's pending batch for its
// shard, handing the batch off when it fills. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) enqueue(shard int, pkt *netpkt.Packet, key features.FlowKey, fold uint32) {
	b := p.pending[shard]
	b.pkts[b.n] = *pkt
	b.keys[b.n] = key
	b.folds[b.n] = fold
	b.seqs[b.n] = p.nextSeq
	b.n++
	p.nextSeq++
	p.ingested.Store(p.nextSeq)
	if b.n >= p.s.cfg.BatchSize {
		p.flushShard(shard)
	}
}

// flushShard hands the lane's pending batch for one shard to the
// worker as one mailbox operation, stamping it with the lane, and
// takes a recycled buffer as the new pending one. Under the Drop
// policy a full mailbox sheds the whole batch — the batch analogue of
// shedding single packets — leaving its sequence numbers as gaps in
// the lane's sequence space. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) flushShard(shard int) {
	b := p.pending[shard]
	if b.n == 0 {
		return
	}
	s := p.s
	w := s.shards[shard]
	b.lane = p.lane
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
	// Never blocks after a successful hand-off: the pool holds one
	// buffer per lane beyond what the mailbox plus the worker can hold.
	p.pending[shard] = <-w.free
}

// flushIfDue is the lane's BatchFlush deadline: once the lane's clock
// has moved BatchFlush past its last flush point, every pending batch
// is handed off. The ingest faces call it once per call, after the
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

// Flush hands the lane's still-pending batched packets to their
// shards. It is the explicit companion to the BatchFlush deadline:
// call it when the stream pauses and the pending tail should be
// decided now (Replay and ReplayBatch call it at end of stream).
// No-op when batching is off. Lane goroutine only.
func (p *Producer) Flush() error {
	if p.s.closed.Load() {
		return ErrClosed
	}
	if p.s.batching() {
		p.flushPending()
	}
	return nil
}

// observe advances the trace clock and broadcasts sweep ticks when the
// shared tick election says this lane crossed the SweepEvery cadence
// first. It runs per packet; the BatchFlush deadline does not (see
// flushIfDue). Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) observe(ts time.Time) {
	s := p.s
	ns := ts.UnixNano()
	if p.lastSeen == 0 {
		// Lane's first packet: seed the shared clocks (first lane's
		// CAS wins; later lanes just advance the running clock) and
		// the lane-local anchors.
		if s.traceStart.CompareAndSwap(0, ns) {
			s.traceNow.CompareAndSwap(0, ns)
			s.lastTickNS.CompareAndSwap(0, ns)
		} else {
			s.advanceTrace(ns)
		}
		p.lastSeen = ns
		p.lastFlush = ns
		return
	}
	if ns <= p.lastSeen {
		return
	}
	p.lastSeen = ns
	s.advanceTrace(ns)
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
	now := time.Unix(0, ns).UTC()
	// This lane's pending batches go first so every shard sees the
	// lane's packets in lane order relative to the tick. Other lanes'
	// pendings are theirs to flush; workers drop the rare stale tick
	// that overtakes a slower lane's earlier one (see runShard).
	if s.batching() {
		p.flushPending()
	}
	for _, w := range s.shards {
		// Ticks are never shed: they carry timeout semantics, and a
		// full queue only delays (bounded) rather than loses them.
		w.in <- shardMsg{kind: msgTick, now: now}
	}
}

// IngestBatch routes a slice of packets to their shards in one call:
// the batch analogue of Ingest, and what Replay/ReplayBatch drive. In
// batch mode every packet is copied into the lane's pending batches,
// so pkts is immediately reusable on return, and the BatchFlush
// deadline is checked once, after the last packet; on an unbatched
// server each packet is individually copied and queued, preserving
// Ingest's semantics (including per-packet Drop-policy sheds, reported
// in the dropped count). Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) IngestBatch(pkts []netpkt.Packet) (accepted, dropped uint64, err error) {
	s := p.s
	if s.closed.Load() {
		return 0, 0, ErrClosed
	}
	if s.batching() {
		for i := range pkts {
			pk := &pkts[i]
			p.observe(pk.Timestamp)
			key, fold := features.CanonicalFoldOf(pk)
			p.enqueue(s.shardOf(fold), pk, key, fold)
		}
		p.flushIfDue()
		return uint64(len(pkts)), 0, nil
	}
	for i := range pkts {
		// The per-packet path sends the pointer itself through the
		// mailbox, so the packet must outlive the caller's buffer.
		pk := pkts[i]
		ok, err := p.Ingest(&pk)
		if err != nil {
			return accepted, dropped, err
		}
		if ok {
			accepted++
		} else {
			dropped++
		}
	}
	return accepted, dropped, nil
}

// IngestDecoded is IngestBatch for packets whose canonical flow keys
// and key folds were already computed on the producer side — the
// ParallelBatchSource hand-off, where decode workers fold while the
// lane ingests. The three slices must be equal-length and parallel
// (keys[i], folds[i] for pkts[i], canonical); folds are trusted, not
// recomputed, so a wrong fold misroutes its flow. Lane goroutine only.
//
//iguard:hotpath
func (p *Producer) IngestDecoded(pkts []netpkt.Packet, keys []features.FlowKey, folds []uint32) (accepted, dropped uint64, err error) {
	s := p.s
	if s.closed.Load() {
		return 0, 0, ErrClosed
	}
	if len(keys) != len(pkts) || len(folds) != len(pkts) {
		return 0, 0, ErrDecodedLenMismatch
	}
	if s.batching() {
		for i := range pkts {
			pk := &pkts[i]
			p.observe(pk.Timestamp)
			p.enqueue(s.shardOf(folds[i]), pk, keys[i], folds[i])
		}
		p.flushIfDue()
		return uint64(len(pkts)), 0, nil
	}
	for i := range pkts {
		pk := pkts[i] // the pointer outlives the caller's buffer
		p.observe(pk.Timestamp)
		ok, err := p.sendPacket(s.shardOf(folds[i]), &pk)
		if err != nil {
			return accepted, dropped, err
		}
		if ok {
			accepted++
		} else {
			dropped++
		}
	}
	return accepted, dropped, nil
}

// Replay pumps a source into the lane until io.EOF, a source error,
// or context cancellation, returning the accepted and shed counts. It
// is ReplayBatch over the source's batch face (native when the source
// implements BatchSource, adapted otherwise). Lane goroutine only.
func (p *Producer) Replay(ctx context.Context, src Source) (accepted, dropped uint64, err error) {
	return p.ReplayBatch(ctx, AsBatchSource(src))
}

// replayReadLen is the read-buffer size Replay/ReplayBatch use when
// the server itself is unbatched (batched servers read BatchSize
// packets at a time).
const replayReadLen = 64

// ReplayBatch pumps a batch source into the lane until io.EOF, a
// source or ingest error, or context cancellation, returning the
// accepted and shed counts. Packets are read up to a batch at a time
// into one reused buffer — IngestBatch copies them out, so the replay
// loop allocates nothing per packet on a batched server. At end of
// stream the lane's pending tail is flushed before returning. Lane
// goroutine only.
func (p *Producer) ReplayBatch(ctx context.Context, src BatchSource) (accepted, dropped uint64, err error) {
	size := p.s.cfg.BatchSize
	if size <= 1 {
		size = replayReadLen
	}
	buf := make([]netpkt.Packet, size)
	for {
		if err := ctx.Err(); err != nil {
			return accepted, dropped, err
		}
		n, rerr := src.NextBatch(buf)
		if n > 0 {
			a, d, ierr := p.IngestBatch(buf[:n])
			accepted += a
			dropped += d
			if ierr != nil {
				return accepted, dropped, ierr
			}
		}
		if rerr == io.EOF {
			return accepted, dropped, p.Flush()
		}
		if rerr != nil {
			return accepted, dropped, rerr
		}
	}
}

// ReplayDecoded pumps a ParallelBatchSource into the lane until the
// source is exhausted, an ingest error, or context cancellation. It
// is the decoded-batch analogue of ReplayBatch: each batch arrives
// with keys and folds already computed by the source's decode workers
// and goes straight to IngestDecoded, and the consumed buffer is
// recycled back to the source. Several lanes may run ReplayDecoded
// against one source concurrently — that is the multi-producer replay
// (see Server.ReplayParallel). Lane goroutine only.
func (p *Producer) ReplayDecoded(ctx context.Context, src *ParallelBatchSource) (accepted, dropped uint64, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return accepted, dropped, err
		}
		db, rerr := src.NextDecoded()
		if db != nil {
			a, d, ierr := p.IngestDecoded(db.Pkts, db.Keys, db.Folds)
			src.Recycle(db)
			accepted += a
			dropped += d
			if ierr != nil {
				return accepted, dropped, ierr
			}
		}
		if rerr == io.EOF {
			return accepted, dropped, p.Flush()
		}
		if rerr != nil {
			return accepted, dropped, rerr
		}
	}
}
