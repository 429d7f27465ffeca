package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/switchsim"
)

// runIngestBatch drives the trace through one lane's IngestBatch in
// 64-packet calls, with the server shaped like runBatched's, and
// returns the per-seq decisions plus the core counters.
func runIngestBatch(t *testing.T, shards, batch int, pkts []netpkt.Packet) ([]decisionRecord, coreCounters) {
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
	lane := srv.Producer(0)
	for off := 0; off < len(pkts); off += 64 {
		if _, _, err := lane.IngestBatch(pkts[off:min(off+64, len(pkts))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := lane.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for seq, ok := range rec.seen {
		if !ok {
			t.Fatalf("seq %d never decided", seq)
		}
	}
	return rec.recs, coreOf(srv.Stats())
}

// TestReplayParallelSingleLaneByteIdentical pins the decode pipeline
// behind Replay: with one lane (one reader, one decode worker, one
// consumer — a pipeline in source order), the keys and folds computed
// off the lane must drive exactly the decision stream and counters of
// the same lane folding producer-side in IngestBatch, at several
// shard × batch shapes (batch 0 takes the default).
func TestReplayParallelSingleLaneByteIdentical(t *testing.T) {
	trace := mixedTrace(t)
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{0, 64} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(t *testing.T) {
				base, baseCore := runIngestBatch(t, shards, batch, trace.Packets)
				got, gotCore, st := runBatched(t, shards, batch, trace.Packets)
				for seq := range base {
					if got[seq] != base[seq] {
						t.Fatalf("seq %d: Replay %+v, IngestBatch %+v", seq, got[seq], base[seq])
					}
				}
				if gotCore != baseCore {
					t.Errorf("core counters diverge: Replay %+v, IngestBatch %+v", gotCore, baseCore)
				}
				if len(st.Lanes) != 1 || st.Lanes[0].Ingested != uint64(len(trace.Packets)) {
					t.Errorf("lane stats = %+v, want one lane with %d ingested", st.Lanes, len(trace.Packets))
				}
			})
		}
	}
}

// TestReplayMultiProducer drives Replay across several lanes at once:
// every packet is accepted, ingested on some lane and decided exactly
// once, and no flow is observed on two shards.
func TestReplayMultiProducer(t *testing.T) {
	const shards, lanes = 4, 3
	trace := mixedTrace(t)
	flowRec := newPerFlowRecorder(shards)
	srv, err := New(Config{
		Shards:     shards,
		BatchSize:  16,
		Producers:  lanes,
		NewShard:   testShardFactory(smallFlowsFL(700), 8, time.Hour),
		OnDecision: flowRec.onDecision,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	n := uint64(len(trace.Packets))
	if accepted != n || st.Ingested != n || st.Packets != len(trace.Packets) || len(st.Lanes) != lanes {
		t.Fatalf("accepted=%d ingested=%d packets=%d lanes=%d, want %d/%d/%d/%d",
			accepted, st.Ingested, st.Packets, len(st.Lanes), n, n, n, lanes)
	}
	decided := 0
	for _, recs := range flowRec.merge(t) {
		decided += len(recs)
	}
	if decided != len(trace.Packets) {
		t.Fatalf("%d decisions, want %d", decided, len(trace.Packets))
	}
}

// laneOrderRecorder pins the per-lane ordering contract: per (shard,
// lane) it records the seq stream in arrival order. Shard goroutines
// write disjoint rows, so no lock is needed.
type laneOrderRecorder struct {
	seqs [][]map[int]bool // [shard][lane] -> set of seqs seen (monotonicity checked inline)
	last [][]int64        // [shard][lane] -> last seq seen, -1 initially
	bad  []string
	mu   sync.Mutex // guards bad only (error reporting is cold)
}

func newLaneOrderRecorder(shards, lanes int) *laneOrderRecorder {
	r := &laneOrderRecorder{
		seqs: make([][]map[int]bool, shards),
		last: make([][]int64, shards),
	}
	for s := 0; s < shards; s++ {
		r.seqs[s] = make([]map[int]bool, lanes)
		r.last[s] = make([]int64, lanes)
		for l := 0; l < lanes; l++ {
			r.seqs[s][l] = map[int]bool{}
			r.last[s][l] = -1
		}
	}
	return r
}

func (r *laneOrderRecorder) onDecision(shard int, lane uint32, seq uint64, _ *netpkt.Packet, _ switchsim.Decision) {
	if r.last[shard][lane] >= int64(seq) {
		r.mu.Lock()
		r.bad = append(r.bad, fmt.Sprintf("shard %d lane %d: seq %d after %d", shard, lane, seq, r.last[shard][lane]))
		r.mu.Unlock()
	}
	r.last[shard][lane] = int64(seq)
	r.seqs[shard][lane][int(seq)] = true
}

// TestMultiProducerLaneContract drives several concurrent producer
// lanes and pins the documented ordering contract: within each (lane,
// shard) pair decisions arrive in strictly increasing seq order, each
// lane's seqs are dense across shards (0..ingested-1, Block policy
// sheds nothing), every flow stays on one shard, and the aggregate
// ingest count balances against processed packets.
func TestMultiProducerLaneContract(t *testing.T) {
	const shards, lanes = 4, 3
	trace := mixedTrace(t)
	flowRec := newPerFlowRecorder(shards)
	laneRec := newLaneOrderRecorder(shards, lanes)
	srv, err := New(Config{
		Shards:     shards,
		QueueDepth: 64,
		Policy:     Block,
		BatchSize:  16,
		Producers:  lanes,
		NewShard:   testShardFactory(smallFlowsFL(700), 8, time.Hour),
		OnDecision: func(shard int, lane uint32, seq uint64, p *netpkt.Packet, d switchsim.Decision) {
			laneRec.onDecision(shard, lane, seq, p, d)
			flowRec.onDecision(shard, lane, seq, p, d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Split the trace into one contiguous slab per lane and drive the
	// lanes from concurrent goroutines — the RSS shape.
	var wg sync.WaitGroup
	per := (len(trace.Packets) + lanes - 1) / lanes
	total := uint64(0)
	for l := 0; l < lanes; l++ {
		lo := l * per
		hi := lo + per
		if hi > len(trace.Packets) {
			hi = len(trace.Packets)
		}
		total += uint64(hi - lo)
		wg.Add(1)
		go func(p *Producer, pkts []netpkt.Packet) {
			defer wg.Done()
			if a, d, err := p.IngestBatch(pkts); err != nil || d != 0 || a != uint64(len(pkts)) {
				t.Errorf("lane %d: IngestBatch = (%d, %d, %v)", p.Lane(), a, d, err)
			}
			if err := p.Flush(); err != nil {
				t.Errorf("lane %d: Flush: %v", p.Lane(), err)
			}
		}(srv.Producer(l), trace.Packets[lo:hi])
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if len(laneRec.bad) > 0 {
		t.Fatalf("per-lane order violated:\n%s", strings.Join(laneRec.bad, "\n"))
	}
	st := srv.Stats()
	if st.Ingested != total || st.Packets != int(total) || st.QueueDrops != 0 {
		t.Fatalf("ingested=%d packets=%d queueDrops=%d, want %d/%d/0", st.Ingested, st.Packets, st.QueueDrops, total, total)
	}
	// Dense per-lane sequence spaces: lane l's seqs across all shards
	// are exactly 0..Ingested-1.
	for l := 0; l < lanes; l++ {
		seen := map[int]bool{}
		for s := 0; s < shards; s++ {
			for seq := range laneRec.seqs[s][l] {
				if seen[seq] {
					t.Fatalf("lane %d seq %d decided twice", l, seq)
				}
				seen[seq] = true
			}
		}
		if want := st.Lanes[l].Ingested; uint64(len(seen)) != want {
			t.Fatalf("lane %d: %d distinct seqs, stats say %d ingested", l, len(seen), want)
		}
		for seq := 0; seq < len(seen); seq++ {
			if !seen[seq] {
				t.Fatalf("lane %d: seq space has a gap at %d under Block policy", l, seq)
			}
		}
	}
	// No flow observed on two shards (perFlowRecorder.merge fails on
	// misroutes) — lanes share the shard partition.
	flowRec.merge(t)
}

// TestProducerErrorsAfterClose pins the closed-server behaviour of the
// whole per-lane ingest face.
func TestProducerErrorsAfterClose(t *testing.T) {
	srv, err := New(Config{
		Shards:    2,
		BatchSize: 8,
		Producers: 2,
		NewShard:  testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	trace := mixedTrace(t)
	p := srv.Producer(1)
	if _, _, err := p.IngestBatch(trace.Packets[:4]); !errors.Is(err, ErrClosed) {
		t.Errorf("IngestBatch after Close: err = %v, want ErrClosed", err)
	}
	if err := p.ingestDecoded(trace.Packets[:4], make([]features.FlowKey, 4), make([]uint32, 4)); !errors.Is(err, ErrClosed) {
		t.Errorf("ingestDecoded after Close: err = %v, want ErrClosed", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close: err = %v, want ErrClosed", err)
	}
	if _, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets)); !errors.Is(err, ErrClosed) {
		t.Errorf("Replay after Close: err = %v, want ErrClosed", err)
	}
}

// TestIngestBatchOversized feeds batches far larger than BatchSize and
// the queue depth in one call: the producer must chunk them through
// its pending buffers without loss (Block policy) and the counters
// must balance exactly.
func TestIngestBatchOversized(t *testing.T) {
	trace := mixedTrace(t)
	srv, err := New(Config{
		Shards:     2,
		QueueDepth: 32, // far smaller than the trace
		BatchSize:  8,
		Policy:     Block,
		NewShard:   testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, d, err := srv.Producer(0).IngestBatch(trace.Packets) // one call, whole trace
	if err != nil || d != 0 || a != uint64(len(trace.Packets)) {
		t.Fatalf("IngestBatch = (%d, %d, %v), want (%d, 0, nil)", a, d, err, len(trace.Packets))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Packets != len(trace.Packets) || st.Ingested != uint64(len(trace.Packets)) || st.QueueDrops != 0 {
		t.Fatalf("packets=%d ingested=%d drops=%d, want %d/%d/0", st.Packets, st.Ingested, st.QueueDrops, len(trace.Packets), len(trace.Packets))
	}
}

// TestConcurrentLaneDropConservation hammers a tiny Drop-policy server
// from several concurrent lanes and checks the conservation law the
// counters promise: every sequence number a lane assigned is either
// processed by a shard or counted in QueueDrops — nothing double
// counted, nothing lost. Run under -race this is also the data-race
// probe for the multi-producer hand-off.
func TestConcurrentLaneDropConservation(t *testing.T) {
	const lanes = 4
	trace := mixedTrace(t)
	srv, err := New(Config{
		Shards:     2,
		QueueDepth: 8, // tiny: force sheds
		BatchSize:  4,
		Policy:     Drop,
		Producers:  lanes,
		NewShard:   testShardFactory(smallFlowsFL(700), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(p *Producer) {
			defer wg.Done()
			// Every lane ingests the whole trace — maximal cross-lane
			// contention on the shard mailboxes.
			for off := 0; off < len(trace.Packets); off += 64 {
				if _, _, err := p.IngestBatch(trace.Packets[off:min(off+64, len(trace.Packets))]); err != nil {
					t.Errorf("lane %d: %v", p.Lane(), err)
					return
				}
			}
			if err := p.Flush(); err != nil {
				t.Errorf("lane %d: %v", p.Lane(), err)
			}
		}(srv.Producer(l))
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if want := uint64(lanes * len(trace.Packets)); st.Ingested != want {
		t.Fatalf("ingested=%d, want %d (Drop sheds after seq assignment in batch mode)", st.Ingested, want)
	}
	if got := uint64(st.Packets) + st.QueueDrops; got != st.Ingested {
		t.Fatalf("conservation violated: processed %d + dropped %d = %d, ingested %d",
			st.Packets, st.QueueDrops, got, st.Ingested)
	}
	if st.QueueDrops == 0 {
		t.Log("no sheds occurred; conservation check was trivial this run")
	}
	var perShard uint64
	for _, sh := range st.Shards {
		perShard += sh.QueueDrops
	}
	if perShard != st.QueueDrops {
		t.Fatalf("per-shard drops sum %d != aggregate %d", perShard, st.QueueDrops)
	}
}

// TestStatsLaneAggregation pins satellite semantics of the lane stats:
// the aggregate Ingested is the sum over lanes (not any single lane's
// counter), Lanes reports each lane's own count, and the operator
// summary renders the per-lane line only when it is informative.
func TestStatsLaneAggregation(t *testing.T) {
	trace := mixedTrace(t)
	srv, err := New(Config{
		Shards:    2,
		BatchSize: 8,
		Producers: 3,
		NewShard:  testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lane methods are one-goroutine-at-a-time per lane; one test
	// goroutine driving the lanes in turn satisfies that trivially.
	counts := []int{40, 25, 10}
	off := 0
	for l, n := range counts {
		p := srv.Producer(l)
		if a, _, err := p.IngestBatch(trace.Packets[off : off+n]); err != nil || a != uint64(n) {
			t.Fatalf("lane %d: IngestBatch = (%d, _, %v)", l, a, err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	st := srv.Stats()
	if st.Ingested != 75 {
		t.Fatalf("aggregate Ingested = %d, want 75 (sum over lanes)", st.Ingested)
	}
	for l, n := range counts {
		if st.Lanes[l].Lane != uint32(l) || st.Lanes[l].Ingested != uint64(n) {
			t.Fatalf("Lanes[%d] = %+v, want lane %d ingested %d", l, st.Lanes[l], l, n)
		}
	}
	if !strings.Contains(st.String(), "lanes: 0=40 1=25 2=10") {
		t.Fatalf("operator summary lacks the per-lane line:\n%s", st.String())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsLaneIngestedCoversShards polls Stats from a second
// goroutine while one lane ingests, under Block and under Drop, and
// checks that no snapshot counts more packets processed or shed than
// the lanes had ingested. The lane publishes its count before every
// hand-off, shed ones included, rather than per packet, so Packets +
// QueueDrops must never run ahead of Ingested. Under -race it is also
// the race probe for that per-call bookkeeping.
func TestStatsLaneIngestedCoversShards(t *testing.T) {
	trace := mixedTrace(t)
	for _, policy := range []DropPolicy{Block, Drop} {
		t.Run(policy.String(), func(t *testing.T) {
			srv, err := New(Config{
				Shards:     2,
				QueueDepth: 8, // small: Drop sheds, Block waits
				BatchSize:  4,
				Policy:     policy,
				NewShard:   testShardFactory(smallFlowsFL(700), 8, time.Hour),
			})
			if err != nil {
				t.Fatal(err)
			}
			// The lane ingests the trace round after round until the
			// poller has taken enough snapshots to interleave with
			// many hand-offs.
			const minPolls, maxRounds = 300, 400
			var polls atomic.Int64
			stop := make(chan struct{})
			bad := make(chan Stats, 1)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := srv.Stats()
					polls.Add(1)
					if uint64(st.Packets)+st.QueueDrops > st.Ingested {
						bad <- st
						return
					}
				}
			}()
			// Long calls keep the lane inside IngestBatch, between its
			// per-call stores, for most of each snapshot.
			const call = 1024
			lane := srv.Producer(0)
			rounds := 0
			for ; rounds < maxRounds && polls.Load() < minPolls; rounds++ {
				for off := 0; off < len(trace.Packets); off += call {
					if _, _, err := lane.IngestBatch(trace.Packets[off:min(off+call, len(trace.Packets))]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := lane.Flush(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			<-done
			select {
			case st := <-bad:
				t.Fatalf("processed %d + dropped %d > ingested %d",
					st.Packets, st.QueueDrops, st.Ingested)
			default:
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			st := srv.Stats()
			if want := uint64(rounds * len(trace.Packets)); st.Ingested != want ||
				uint64(st.Packets)+st.QueueDrops != want {
				t.Fatalf("drained: processed %d + dropped %d, ingested %d; want %d",
					st.Packets, st.QueueDrops, st.Ingested, want)
			}
			t.Logf("%d rounds, %d polls, %d of %d shed", rounds, polls.Load(), st.QueueDrops, st.Ingested)
		})
	}
}

// TestParallelBatchSourceDecodesAll checks the decode pipeline across
// several workers and consumers: every packet of the trace comes out
// exactly once, its key and fold are exactly CanonicalFoldOf's, and
// every consumer sees io.EOF at the end.
func TestParallelBatchSourceDecodesAll(t *testing.T) {
	trace := mixedTrace(t)
	ps := newParallelBatchSource(context.Background(), NewTraceSource(trace.Packets), 3, 7, 8)
	var mu sync.Mutex
	got := map[uint64]int{} // packet timestamp+len fingerprint -> count
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				db, err := ps.next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Errorf("next: %v", err)
					return
				}
				for i := range db.pkts {
					key, fold := features.CanonicalFoldOf(&db.pkts[i])
					if db.keys[i] != key || db.folds[i] != fold {
						t.Errorf("decoded key/fold (%v, %d) != CanonicalFoldOf (%v, %d)", db.keys[i], db.folds[i], key, fold)
					}
					fp := uint64(db.pkts[i].Timestamp.UnixNano())<<16 | uint64(db.pkts[i].Length&0xffff)
					mu.Lock()
					got[fp]++
					mu.Unlock()
				}
				ps.free <- db
			}
		}()
	}
	wg.Wait()
	want := map[uint64]int{}
	for i := range trace.Packets {
		fp := uint64(trace.Packets[i].Timestamp.UnixNano())<<16 | uint64(trace.Packets[i].Length&0xffff)
		want[fp]++
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d distinct fingerprints, want %d", len(got), len(want))
	}
	for fp, n := range want {
		if got[fp] != n {
			t.Fatalf("fingerprint %x decoded %d times, want %d", fp, got[fp], n)
		}
	}
}

// blockingSource blocks NextBatch until released, then reports EOF —
// the shape of a live capture with no traffic.
type blockingSource struct{ release chan struct{} }

func (b *blockingSource) NextBatch([]netpkt.Packet) (int, error) {
	<-b.release
	return 0, io.EOF
}

// TestParallelBatchSourceClose pins early teardown: consumers blocked
// on a silent source unblock with the context's error as soon as it is
// cancelled, without waiting for the source.
func TestParallelBatchSourceClose(t *testing.T) {
	src := &blockingSource{release: make(chan struct{})}
	defer close(src.release) // let the reader goroutine exit at test end
	ctx, cancel := context.WithCancel(context.Background())
	ps := newParallelBatchSource(ctx, src, 2, 8, 6)
	errc := make(chan error, 1)
	go func() {
		_, err := ps.next()
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("next returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("next after cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("next still blocked after cancel")
	}
}
