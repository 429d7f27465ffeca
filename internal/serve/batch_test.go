package serve

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/switchsim"
)

// seqRecorder captures every decision indexed by ingest sequence
// number. Shards write disjoint seqs (a seq belongs to exactly one
// packet, a packet to exactly one shard), so the slice needs no lock.
type seqRecorder struct {
	recs []decisionRecord
	seen []bool
}

func newSeqRecorder(n int) *seqRecorder {
	return &seqRecorder{recs: make([]decisionRecord, n), seen: make([]bool, n)}
}

func (r *seqRecorder) onDecision(_ int, _ uint32, seq uint64, _ *netpkt.Packet, d switchsim.Decision) {
	r.recs[seq] = decisionRecord{Path: d.Path, Predicted: d.Predicted, Dropped: d.Dropped}
	r.seen[seq] = true
}

// coreCounters projects the Stats fields that must not depend on how
// packets travel to the shards (queue mechanics aside, the pipeline
// must do identical work).
type coreCounters struct {
	Packets    int
	PathCounts [6]int
	Drops      int
	Digests    int
	Sweeps     int
	Ticks      uint64
}

func coreOf(st Stats) coreCounters {
	return coreCounters{
		Packets:    st.Packets,
		PathCounts: st.PathCounts,
		Drops:      st.Drops,
		Digests:    st.Digests,
		Sweeps:     st.Sweeps,
		Ticks:      st.Ticks,
	}
}

// Shared shape of the decision-equivalence runs: the sequential model
// and every server over the same trace use these.
const (
	equivQueueDepth = 256
	equivSweepEvery = 50 * time.Millisecond
)

func equivShardFactory() func(int) Shard { return testShardFactory(smallFlowsFL(700), 8, time.Hour) }

// sequentialDecisions is the decision oracle, computed without a
// server: bare per-shard switches from the same factory, each packet
// routed by the shard hash and decided by ProcessPacket in trace order,
// and every shard swept at each SweepEvery crossing of the trace clock,
// before the crossing packet. It returns the per-packet decisions and
// the counters a server must reproduce at any batch size.
func sequentialDecisions(shards int, pkts []netpkt.Packet) ([]decisionRecord, coreCounters) {
	newShard := equivShardFactory()
	sws := make([]*switchsim.Switch, shards)
	for i := range sws {
		sws[i] = newShard(i).Switch
	}
	recs := make([]decisionRecord, len(pkts))
	var core coreCounters
	var lastSeen, lastTick int64
	for i := range pkts {
		ns := pkts[i].Timestamp.UnixNano()
		switch {
		case i == 0:
			lastSeen, lastTick = ns, ns
		case ns > lastSeen:
			lastSeen = ns
			if time.Duration(ns-lastTick) >= equivSweepEvery {
				lastTick = ns
				core.Ticks++
				for _, sw := range sws {
					sw.SweepTimeouts(time.Unix(0, ns).UTC())
				}
			}
		}
		_, fold := features.CanonicalFoldOf(&pkts[i])
		d := sws[features.BiHashFold(fold, shardSeed)%uint32(shards)].ProcessPacket(&pkts[i])
		recs[i] = decisionRecord{Path: d.Path, Predicted: d.Predicted, Dropped: d.Dropped}
	}
	for _, sw := range sws {
		c := sw.Counters
		core.Packets += c.Packets
		for p, n := range c.PathCounts {
			core.PathCounts[p] += n
		}
		core.Drops += c.Drops
		core.Digests += c.Digests
		core.Sweeps += c.Sweeps
	}
	return recs, core
}

// runBatched replays the trace through a server with the given batch
// size via Replay and returns the per-seq decisions plus the core
// counters.
func runBatched(t *testing.T, shards, batch int, pkts []netpkt.Packet) ([]decisionRecord, coreCounters, Stats) {
	t.Helper()
	rec := newSeqRecorder(len(pkts))
	srv, err := New(Config{
		Shards:     shards,
		QueueDepth: equivQueueDepth,
		Policy:     Block,
		SweepEvery: equivSweepEvery,
		BatchSize:  batch,
		NewShard:   equivShardFactory(),
		OnDecision: rec.onDecision,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := srv.Replay(context.Background(), NewTraceSource(pkts))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != uint64(len(pkts)) {
		t.Fatalf("accepted=%d want %d", accepted, len(pkts))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.QueueDrops != 0 {
		t.Fatalf("queueDrops=%d under Block", st.QueueDrops)
	}
	for seq, ok := range rec.seen {
		if !ok {
			t.Fatalf("seq %d never decided", seq)
		}
	}
	return rec.recs, coreOf(st), st
}

// sparseTrace returns a copy of pkts stretched in trace time: packet i
// moves gap*i later, so order is kept but every few packets cross a
// BatchFlush interval — the regime of replayed captures, where one
// ingest call spans many flush deadlines.
func sparseTrace(pkts []netpkt.Packet, gap time.Duration) []netpkt.Packet {
	out := make([]netpkt.Packet, len(pkts))
	for i := range pkts {
		out[i] = pkts[i]
		out[i].Timestamp = pkts[i].Timestamp.Add(time.Duration(i) * gap)
	}
	return out
}

// TestBatchDecisionsMatchUnbatched is the serving-layer equivalence
// pin: at every batch size × shard count, the per-sequence decision
// stream and the pipeline counters of a server driven through Replay
// must be byte-identical to the sequential per-packet model
// (sequentialDecisions) over the same trace — batching changes how
// packets travel to the shards, never what is decided. The sparse
// variant spaces packets 250µs apart on top of their own timing, so a
// 64-packet ingest call spans 16 BatchFlush deadlines.
func TestBatchDecisionsMatchUnbatched(t *testing.T) {
	dense := mixedTrace(t).Packets
	for _, tc := range []struct {
		name string
		pkts []netpkt.Packet
	}{
		{"", dense},
		{"sparse/", sparseTrace(dense, 250*time.Microsecond)},
	} {
		for _, shards := range []int{1, 2, 8} {
			want, wantCore := sequentialDecisions(shards, tc.pkts)
			if wantCore.Ticks == 0 {
				t.Fatal("trace never crossed a sweep tick; the ordering check is vacuous")
			}
			for _, batch := range []int{1, 7, 64, 1024} {
				t.Run(fmt.Sprintf("%sshards=%d/batch=%d", tc.name, shards, batch), func(t *testing.T) {
					got, gotCore, st := runBatched(t, shards, batch, tc.pkts)
					for seq := range want {
						if got[seq] != want[seq] {
							t.Fatalf("seq %d: server %+v, sequential model %+v", seq, got[seq], want[seq])
						}
					}
					if gotCore != wantCore {
						t.Errorf("core counters diverge: server %+v, sequential model %+v", gotCore, wantCore)
					}
					if st.Batches == 0 || (batch == 1 && st.Batches != uint64(st.Packets)) {
						t.Errorf("%d batch hand-offs for %d packets at batch size %d", st.Batches, st.Packets, batch)
					}
				})
			}
		}
	}
}

// flowPacket builds a UDP packet of flow i at trace offset at.
func flowPacket(i int, at time.Duration) netpkt.Packet {
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	return netpkt.Packet{
		Timestamp: base.Add(at),
		SrcIP:     [4]byte{10, 0, byte(i >> 8), byte(i)}, DstIP: [4]byte{23, 1, 0, 1},
		SrcPort: uint16(1000 + i), DstPort: 80, Proto: netpkt.ProtoUDP, TTL: 64, Length: 120,
	}
}

// TestBatchFlushDeadline pins the latency bound: once an ingest call
// moves the lane's trace clock BatchFlush past the last flush point,
// every pending batch — the calling packet's own included — is handed
// off before the call returns, without waiting for the batch to fill
// or for an explicit Flush. Stats is a barrier relative to handed-off
// batches and never flushes pending ones, so Packets counts exactly
// what the deadline released.
func TestBatchFlushDeadline(t *testing.T) {
	srv, err := New(Config{
		Shards:     1,
		BatchSize:  64,
		BatchFlush: time.Millisecond,
		Policy:     Block,
		NewShard:   testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	lane := srv.Producer(0)
	ingest := func(at time.Duration, wantDecided int) {
		t.Helper()
		if _, _, err := lane.IngestBatch([]netpkt.Packet{flowPacket(1, at)}); err != nil {
			t.Fatal(err)
		}
		if got := srv.Stats().Packets; got != wantDecided {
			t.Fatalf("after the packet at %v: %d packets decided, want %d", at, got, wantDecided)
		}
	}
	// p1 seeds the lane clock; p2 stays within BatchFlush of it. Both
	// must still be pending.
	ingest(0, 0)
	ingest(500*time.Microsecond, 0)
	// p3 is 2ms of trace time later and crosses the 1ms deadline: the
	// Ingest that crosses it hands off p1, p2 and p3 itself.
	ingest(2*time.Millisecond, 3)
	// The deadline re-anchors at p3: p4 waits again.
	ingest(2500*time.Microsecond, 3)
	// Explicit Flush delivers the rest.
	if err := lane.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Packets; got != 4 {
		t.Fatalf("after Flush: %d packets decided, want 4", got)
	}
}

// TestBatchFlushOncePerCall pins where the deadline is checked: once
// per ingest call, not once per packet. One IngestBatch whose packets
// span many BatchFlush intervals of trace time hands each shard that
// received packets exactly one batch, at the end of the call; a call
// that stays inside the deadline hands off nothing.
func TestBatchFlushOncePerCall(t *testing.T) {
	const n = 40
	srv, err := New(Config{
		Shards:     4,
		BatchSize:  64,
		BatchFlush: time.Millisecond,
		Policy:     Block,
		NewShard:   testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// flows builds one packet for each of n distinct flows, step apart
	// in trace time from start, and counts the shards they land on.
	flows := func(start, step time.Duration) ([]netpkt.Packet, uint64) {
		pkts := make([]netpkt.Packet, n)
		hit := make(map[int]bool)
		for i := range pkts {
			pkts[i] = flowPacket(i, start+time.Duration(i)*step)
			_, fold := features.CanonicalFoldOf(&pkts[i])
			hit[srv.shardOf(fold)] = true
		}
		return pkts, uint64(len(hit))
	}
	lane := srv.Producer(0)
	// handOffs runs fn and returns how many batches it handed off.
	handOffs := func(fn func() error) uint64 {
		t.Helper()
		before := srv.Stats().Batches
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return srv.Stats().Batches - before
	}

	// Two calls, each spanning 39 BatchFlush intervals.
	for _, start := range []time.Duration{0, n * time.Millisecond} {
		pkts, recv := flows(start, time.Millisecond)
		if recv < 2 {
			t.Fatalf("packets reached %d shard(s); the test needs several", recv)
		}
		got := handOffs(func() error { _, _, err := lane.IngestBatch(pkts); return err })
		if got != recv {
			t.Fatalf("call from %v handed off %d batches, want %d (one per receiving shard)", start, got, recv)
		}
	}
	// A call that ends 39µs after the last flush point stays pending
	// until Flush.
	pkts, recv := flows((2*n-1)*time.Millisecond, time.Microsecond)
	if got := handOffs(func() error { _, _, err := lane.IngestBatch(pkts); return err }); got != 0 {
		t.Fatalf("call inside the deadline handed off %d batches, want 0", got)
	}
	if got := handOffs(lane.Flush); got != recv {
		t.Fatalf("Flush handed off %d batches, want %d", got, recv)
	}
	if got := srv.Stats().Packets; got != 3*n {
		t.Fatalf("%d packets decided, want %d", got, 3*n)
	}
}

// TestBatchDropPolicySheds exercises whole-batch shedding: with a tiny
// queue and a blocked-up worker the Drop policy must shed at batch
// granularity, account every shed packet, and never deadlock the
// producer; packets processed plus packets shed must equal packets
// ingested.
func TestBatchDropPolicySheds(t *testing.T) {
	trace := mixedTrace(t)
	srv, err := New(Config{
		Shards:     2,
		QueueDepth: 8,
		BatchSize:  4,
		Policy:     Drop,
		NewShard:   testShardFactory(smallFlowsFL(700), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Ingested != uint64(len(trace.Packets)) {
		t.Fatalf("ingested=%d want %d", st.Ingested, len(trace.Packets))
	}
	if uint64(st.Packets)+st.QueueDrops != st.Ingested {
		t.Fatalf("processed=%d + shed=%d != ingested=%d", st.Packets, st.QueueDrops, st.Ingested)
	}
}

// TestIngestBatchUnbatched pins IngestBatch at BatchSize 1: every
// packet is handed off alone, every one is decided, and the read
// buffer is safely reusable on return (each packet is copied into a
// lane-owned buffer before it crosses the mailbox).
func TestIngestBatchUnbatched(t *testing.T) {
	trace := mixedTrace(t)
	rec := newSeqRecorder(len(trace.Packets))
	srv, err := New(Config{
		Shards:     2,
		BatchSize:  1,
		Policy:     Block,
		NewShard:   testShardFactory(smallFlowsFL(700), 8, time.Hour),
		OnDecision: rec.onDecision,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]netpkt.Packet, 16)
	var accepted uint64
	for off := 0; off < len(trace.Packets); off += len(buf) {
		n := copy(buf, trace.Packets[off:])
		a, d, err := srv.Producer(0).IngestBatch(buf[:n])
		if err != nil || d != 0 {
			t.Fatalf("IngestBatch: accepted=%d dropped=%d err=%v", a, d, err)
		}
		accepted += a
		// Scribble over the buffer: the server must have copied.
		for i := range buf[:n] {
			buf[i] = netpkt.Packet{}
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if accepted != uint64(len(trace.Packets)) {
		t.Fatalf("accepted=%d want %d", accepted, len(trace.Packets))
	}
	if st := srv.Stats(); st.Packets != len(trace.Packets) || st.Batches != uint64(len(trace.Packets)) {
		t.Fatalf("processed=%d in %d batches, want %d in %d", st.Packets, st.Batches, len(trace.Packets), len(trace.Packets))
	}
	for seq, ok := range rec.seen {
		if !ok {
			t.Fatalf("seq %d never decided", seq)
		}
	}
}

// TestTraceSourceNextBatch covers TraceSource's Source face: full
// batches, the partial tail, and EOF termination.
func TestTraceSourceNextBatch(t *testing.T) {
	want := mixedTrace(t).Packets[:10]
	ts := NewTraceSource(want)
	buf := make([]netpkt.Packet, 4)
	var got []netpkt.Packet
	var sizes []int
	for {
		n, err := ts.NextBatch(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, n)
	}
	if fmt.Sprint(sizes) != "[4 4 2]" {
		t.Fatalf("batch sizes %v, want [4 4 2]", sizes)
	}
	for i := range want {
		if got[i].Timestamp != want[i].Timestamp || got[i].SrcPort != want[i].SrcPort {
			t.Fatalf("packet %d differs", i)
		}
	}
}

// TestConfigValidateBatch covers the joined-error validator.
func TestConfigValidateBatch(t *testing.T) {
	err := Config{
		Shards:     -1,
		QueueDepth: -1,
		BatchSize:  -3,
		BatchFlush: -time.Second,
	}.Validate()
	if err == nil {
		t.Fatal("nonsense config validated")
	}
	for _, want := range []string{"NewShard", "Shards", "QueueDepth", "BatchSize", "BatchFlush"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %s", err, want)
		}
	}
	if err := (Config{NewShard: func(int) Shard { return Shard{} }, BatchSize: MaxBatchSize + 1}).Validate(); err == nil {
		t.Error("oversized BatchSize validated")
	}
	if _, err := New(Config{NewShard: func(int) Shard { return Shard{} }, BatchSize: -1}); err == nil {
		t.Error("New accepted a negative BatchSize")
	}
}

// TestBatchedLoopAllocationFree is the batched twin of
// TestShardLoopAllocationFree: one iteration ingests a full batch
// (producer copy, hand-off, worker ProcessBatch, ring reuse) and
// drains via a stats message; the whole cycle must not touch the heap.
func TestBatchedLoopAllocationFree(t *testing.T) {
	srv, err := New(Config{
		Shards:     1,
		QueueDepth: 256,
		BatchSize:  64,
		Policy:     Block,
		NewShard: func(int) Shard {
			return Shard{Switch: switchsim.New(switchsim.Config{
				Slots:        1 << 12,
				PktThreshold: 1 << 30,
				Timeout:      time.Hour,
			})}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	pkts := make([]netpkt.Packet, 64)
	for i := range pkts {
		pkts[i] = netpkt.Packet{
			Timestamp: base.Add(time.Duration(i) * time.Microsecond),
			SrcIP:     [4]byte{10, 0, 0, byte(1 + i%4)},
			DstIP:     [4]byte{23, 1, 0, 1},
			SrcPort:   uint16(1000 + i%4),
			DstPort:   80,
			Proto:     netpkt.ProtoUDP,
			TTL:       64,
			Length:    120,
		}
	}
	w := srv.shards[0]
	ack := make(chan ShardStats, 1)
	drain := func() {
		w.in <- shardMsg{kind: msgStats, ack: ack}
		<-ack
	}

	lane := srv.Producer(0)
	if _, _, err := lane.IngestBatch(pkts); err != nil {
		t.Fatal(err)
	}
	drain()

	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := lane.IngestBatch(pkts); err != nil {
			t.Fatal(err)
		}
		drain()
	}); n != 0 {
		t.Errorf("batched loop allocs per ingest→decide→stats cycle = %v, want 0", n)
	}
}
