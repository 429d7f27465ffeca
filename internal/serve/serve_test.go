package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"iguard/internal/controller"
	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

// flBounds is a generous quantisation range per FL feature for
// handcrafted test rule sets.
func flBounds() (min, max []float64) {
	min = make([]float64, features.FLDim)
	max = []float64{
		64,     // pkt_count
		200000, // total_size
		4000,   // avg_size
		4000,   // std_size
		1.6e7,  // var_size
		4000,   // min_size
		4000,   // max_size
		30,     // avg_ipd
		30,     // min_ipd
		900,    // var_ipd
		30,     // std_ipd
		30,     // max_ipd
		600,    // duration
	}
	return min, max
}

// acceptAllFL compiles a whitelist containing one box over the whole
// feature space: every classified flow is benign.
func acceptAllFL() *rules.CompiledRuleSet {
	min, max := flBounds()
	box := make(rules.Box, features.FLDim)
	for i := range box {
		box[i] = rules.Interval{Lo: min[i], Hi: max[i]}
	}
	rs := &rules.RuleSet{Dim: features.FLDim, DefaultLabel: 1, Rules: []rules.Rule{{Box: box, Label: 0}}}
	return rules.Compile(rs, rules.NewQuantizer(min, max, 12))
}

// rejectAllFL compiles an empty whitelist: every classified flow is
// malicious (the default label).
func rejectAllFL() *rules.CompiledRuleSet {
	min, max := flBounds()
	rs := &rules.RuleSet{Dim: features.FLDim, DefaultLabel: 1}
	return rules.Compile(rs, rules.NewQuantizer(min, max, 12))
}

// smallFlowsFL whitelists only flows whose average packet size stays
// under the cutoff — a selective rule set so decisions differ by flow.
func smallFlowsFL(cutoff float64) *rules.CompiledRuleSet {
	min, max := flBounds()
	box := make(rules.Box, features.FLDim)
	for i := range box {
		box[i] = rules.Interval{Lo: min[i], Hi: max[i]}
	}
	box[features.FLAvgSize] = rules.Interval{Lo: 0, Hi: cutoff}
	rs := &rules.RuleSet{Dim: features.FLDim, DefaultLabel: 1, Rules: []rules.Rule{{Box: box, Label: 0}}}
	return rules.Compile(rs, rules.NewQuantizer(min, max, 12))
}

// testShardFactory builds identical per-shard deployments: ample slots
// and blacklist capacity so cross-flow coupling (slot collisions,
// evictions) cannot make per-flow decisions depend on the shard count.
func testShardFactory(fl *rules.CompiledRuleSet, threshold int, timeout time.Duration) func(int) Shard {
	return func(int) Shard {
		sw := switchsim.New(switchsim.Config{
			Slots:             8192,
			PktThreshold:      threshold,
			Timeout:           timeout,
			FLRules:           fl,
			BlacklistCapacity: 8192,
			DropMalicious:     true,
		})
		ctrl := controller.New(sw, 8192, controller.FIFO)
		sw.SetSink(ctrl)
		return Shard{Switch: sw, Controller: ctrl}
	}
}

// decisionRecord encodes the per-packet outcome fields that must be
// reproducible.
type decisionRecord struct {
	Path      switchsim.Path
	Predicted int
	Dropped   bool
}

// perFlowRecorder accumulates decision streams per canonical flow key
// without locks: each shard writes only its own map, and flows never
// span shards, so the maps merge disjointly after Close.
type perFlowRecorder struct {
	byShard []map[features.FlowKey][]decisionRecord
}

func newPerFlowRecorder(shards int) *perFlowRecorder {
	r := &perFlowRecorder{byShard: make([]map[features.FlowKey][]decisionRecord, shards)}
	for i := range r.byShard {
		r.byShard[i] = map[features.FlowKey][]decisionRecord{}
	}
	return r
}

func (r *perFlowRecorder) onDecision(shard int, _ uint32, _ uint64, p *netpkt.Packet, d switchsim.Decision) {
	key := features.KeyOf(p).Canonical()
	r.byShard[shard][key] = append(r.byShard[shard][key],
		decisionRecord{Path: d.Path, Predicted: d.Predicted, Dropped: d.Dropped})
}

// merge flattens the per-shard maps, failing the test if any flow was
// observed on more than one shard (a misroute).
func (r *perFlowRecorder) merge(t *testing.T) map[features.FlowKey][]decisionRecord {
	t.Helper()
	out := map[features.FlowKey][]decisionRecord{}
	owner := map[features.FlowKey]int{}
	for shard, m := range r.byShard {
		for key, recs := range m {
			if prev, dup := owner[key]; dup {
				t.Fatalf("flow %v observed on shards %d and %d", key, prev, shard)
			}
			owner[key] = shard
			out[key] = recs
		}
	}
	return out
}

// mixedTrace returns a deterministic benign+attack packet sequence.
func mixedTrace(t testing.TB) *traffic.Trace {
	t.Helper()
	attack, err := traffic.GenerateAttack(traffic.UDPDDoS, 11, 20)
	if err != nil {
		t.Fatal(err)
	}
	return traffic.GenerateBenign(10, 100).Merge(attack)
}

// runTrace replays the trace through a fresh server with the given
// shard count and returns the merged per-flow decision streams.
func runTrace(t *testing.T, trace *traffic.Trace, shards int, fl *rules.CompiledRuleSet) map[features.FlowKey][]decisionRecord {
	t.Helper()
	rec := newPerFlowRecorder(shards)
	srv, err := New(Config{
		Shards:     shards,
		QueueDepth: 256,
		Policy:     Block,
		NewShard:   testShardFactory(fl, 8, time.Hour),
		OnDecision: rec.onDecision,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != uint64(len(trace.Packets)) {
		t.Fatalf("accepted=%d want %d", accepted, len(trace.Packets))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Packets != len(trace.Packets) || st.QueueDrops != 0 {
		t.Fatalf("processed %d packets with %d queue drops, want %d and 0", st.Packets, st.QueueDrops, len(trace.Packets))
	}
	return rec.merge(t)
}

// TestShardRoutingDeterminism pins the core serving invariant: the
// per-flow decision stream is byte-identical at shard counts 1, 2, and
// 8 — sharding changes who computes, never what is computed.
func TestShardRoutingDeterminism(t *testing.T) {
	trace := mixedTrace(t)
	fl := smallFlowsFL(700)
	base := runTrace(t, trace, 1, fl)
	if len(base) == 0 {
		t.Fatal("no flows recorded")
	}
	// The single-shard run must exercise both verdicts for the
	// comparison to mean anything.
	var benign, malicious int
	for _, recs := range base {
		for _, r := range recs {
			if r.Predicted == 1 {
				malicious++
			} else {
				benign++
			}
		}
	}
	if benign == 0 || malicious == 0 {
		t.Fatalf("degenerate workload: benign=%d malicious=%d", benign, malicious)
	}
	for _, shards := range []int{2, 8} {
		got := runTrace(t, trace, shards, fl)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("per-flow decisions at %d shards differ from 1 shard", shards)
		}
	}
}

// TestHotSwapUnderLoad swaps the whitelist while a producer is mid-
// replay: no packet may be lost or misrouted, every shard must apply
// the swap exactly once, and post-swap classifications must follow the
// new rules. Batches of one keep every packet ingested before the swap
// on its way to a shard.
func TestHotSwapUnderLoad(t *testing.T) {
	trace := mixedTrace(t)
	shards := 4
	rec := newPerFlowRecorder(shards)
	srv, err := New(Config{
		Shards:     shards,
		QueueDepth: 64,
		BatchSize:  1,
		Policy:     Block,
		NewShard:   testShardFactory(acceptAllFL(), 8, time.Hour),
		OnDecision: rec.onDecision,
	})
	if err != nil {
		t.Fatal(err)
	}

	half := len(trace.Packets) / 2
	halfway := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		lane := srv.Producer(0)
		for i := range trace.Packets {
			if i == half {
				close(halfway)
			}
			if _, _, err := lane.IngestBatch(trace.Packets[i : i+1]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	<-halfway
	if err := srv.Swap(nil, rejectAllFL()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Packets != len(trace.Packets) || st.QueueDrops != 0 {
		t.Fatalf("processed=%d queueDrops=%d want processed=%d queueDrops=0",
			st.Packets, st.QueueDrops, len(trace.Packets))
	}
	for _, sh := range st.Shards {
		if sh.Swaps != 1 || sh.Switch.RuleSwaps != 1 {
			t.Fatalf("shard %d applied %d swaps (switch counted %d), want 1", sh.Shard, sh.Swaps, sh.Switch.RuleSwaps)
		}
	}
	rec.merge(t) // no misroutes
	// Before the swap every classification is benign (accept-all);
	// after it every classification is malicious (reject-all), so the
	// run must have produced both digest outcomes and some installs.
	if st.Digests == 0 || st.RulesInstalled == 0 || st.Drops == 0 {
		t.Fatalf("digests=%d installs=%d drops=%d: swap to reject-all left no malicious trace",
			st.Digests, st.RulesInstalled, st.Drops)
	}
	if st.RulesInstalled >= st.Digests {
		t.Fatalf("installs=%d digests=%d: expected some benign digests from before the swap",
			st.RulesInstalled, st.Digests)
	}
	if st.BlacklistLen == 0 {
		t.Fatal("no blacklist entries resident after reject-all swap")
	}
}

// TestFlushBlacklists pins the swap companion, ApplyFlush: withdrawing
// all verdicts issued under the old rules, across every shard.
func TestFlushBlacklists(t *testing.T) {
	trace := mixedTrace(t)
	srv, err := New(Config{
		Shards:   2,
		NewShard: testShardFactory(rejectAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets)); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.BlacklistLen == 0 {
		t.Fatal("reject-all produced no blacklist entries")
	}
	removed, err := srv.ApplyFlush()
	if err != nil {
		t.Fatal(err)
	}
	if removed != st.BlacklistLen {
		t.Fatalf("flushed %d entries, want %d", removed, st.BlacklistLen)
	}
	if after := srv.Stats(); after.BlacklistLen != 0 {
		t.Fatalf("blacklistLen=%d after flush, want 0", after.BlacklistLen)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ApplyFlush(); err != ErrClosed {
		t.Fatalf("ApplyFlush after Close: err=%v want ErrClosed", err)
	}
}

// TestCloseDrains pins the drain semantics: Close processes everything
// already accepted — pending batches included — then ingest and Swap
// report ErrClosed and Stats serves the final snapshot.
func TestCloseDrains(t *testing.T) {
	trace := traffic.GenerateBenign(3, 40)
	srv, err := New(Config{
		Shards:     2,
		QueueDepth: 8, // small on purpose: Close must still drain fully
		Policy:     Block,
		NewShard:   testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	lane := srv.Producer(0)
	if _, _, err := lane.IngestBatch(trace.Packets); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Packets != len(trace.Packets) {
		t.Fatalf("drained %d packets, want %d", st.Packets, len(trace.Packets))
	}
	if _, _, err := lane.IngestBatch(trace.Packets[:1]); err != ErrClosed {
		t.Fatalf("IngestBatch after Close: err=%v want ErrClosed", err)
	}
	if err := srv.Swap(nil, nil); err != ErrClosed {
		t.Fatalf("Swap after Close: err=%v want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if again := srv.Stats(); again.Packets != st.Packets {
		t.Fatalf("Stats after Close unstable: %d then %d", st.Packets, again.Packets)
	}
}

// TestDropPolicySheds pins the counted-drop backpressure at batch
// sizes 1 and 4: with a wedged shard and a full queue, hand-offs shed
// whole batches instead of blocking. Shed packets keep their sequence
// numbers as gaps and stay counted as ingested, so processed + shed ==
// ingested, and every decided sequence number is one the lane issued.
func TestDropPolicySheds(t *testing.T) {
	trace := traffic.GenerateBenign(4, 30)
	const depth = 4
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			gate := make(chan struct{})
			first := make(chan struct{})
			var opened bool
			var decided []uint64 // shard goroutine only; read after Close
			srv, err := New(Config{
				Shards:     1,
				QueueDepth: depth,
				BatchSize:  batch,
				Policy:     Drop,
				NewShard:   testShardFactory(acceptAllFL(), 8, time.Hour),
				OnDecision: func(_ int, _ uint32, seq uint64, _ *netpkt.Packet, _ switchsim.Decision) {
					decided = append(decided, seq)
					if !opened {
						opened = true
						close(first)
						<-gate // wedge the shard with the first batch in hand
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			lane := srv.Producer(0)
			// Each call fills exactly one batch, which is handed off at once.
			offer := func(i int) {
				t.Helper()
				if a, d, err := lane.IngestBatch(trace.Packets[i*batch : (i+1)*batch]); err != nil || a != uint64(batch) || d != 0 {
					t.Fatalf("IngestBatch = (%d, %d, %v), want (%d, 0, nil)", a, d, err, batch)
				}
			}
			offer(0)
			<-first // the worker now owns batch 0 and is wedged
			const calls = 1 + depth + 10
			for i := 1; i < calls; i++ {
				offer(i)
			}
			close(gate)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			st := srv.Stats()
			mailbox := (depth + batch - 1) / batch
			if want := uint64(calls * batch); st.Ingested != want {
				t.Fatalf("ingested=%d, want %d (sheds keep their sequence numbers)", st.Ingested, want)
			}
			if want := (1 + mailbox) * batch; st.Packets != want {
				t.Fatalf("processed=%d, want %d (the wedged batch plus a full mailbox of %d)", st.Packets, want, mailbox)
			}
			if uint64(st.Packets)+st.QueueDrops != st.Ingested {
				t.Fatalf("conservation: processed %d + shed %d != ingested %d", st.Packets, st.QueueDrops, st.Ingested)
			}
			if len(decided) != st.Packets {
				t.Fatalf("%d decisions for %d processed packets", len(decided), st.Packets)
			}
			for i, seq := range decided {
				if seq >= st.Ingested || (i > 0 && seq <= decided[i-1]) {
					t.Fatalf("decided seqs %v are not increasing below %d", decided, st.Ingested)
				}
			}
		})
	}
}

// TestTracePacedSweeps pins the deterministic sweep cadence: when the
// trace clock jumps past SweepEvery, every shard sweeps, classifying
// flows that went idle — without any packet of theirs arriving.
func TestTracePacedSweeps(t *testing.T) {
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(srcPort uint16, ts time.Time) netpkt.Packet {
		return netpkt.Packet{
			Timestamp: ts,
			SrcIP:     [4]byte{10, 0, 0, 1},
			DstIP:     [4]byte{23, 1, 0, 1},
			SrcPort:   srcPort,
			DstPort:   80,
			Proto:     netpkt.ProtoTCP,
			TTL:       64,
			Length:    120,
		}
	}
	// Flow A: two packets, then silence. Flow B arrives 10s later and
	// advances the trace clock past the sweep cadence.
	packets := []netpkt.Packet{
		mk(1000, base),
		mk(1000, base.Add(time.Millisecond)),
		mk(2000, base.Add(10*time.Second)),
	}
	const shards = 2
	srv, err := New(Config{
		Shards:     shards,
		QueueDepth: 16,
		Policy:     Block,
		SweepEvery: time.Second,
		NewShard:   testShardFactory(acceptAllFL(), 8, 5*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Producer(0).IngestBatch(packets); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Ticks != 1 {
		t.Fatalf("ticks=%d want 1", st.Ticks)
	}
	if st.Sweeps != shards {
		t.Fatalf("sweeps=%d want %d (one per shard per tick)", st.Sweeps, shards)
	}
	// Flow A was swept: digested from its 2-packet state despite never
	// reaching the packet threshold.
	if st.Digests != 1 {
		t.Fatalf("digests=%d want 1 (flow A swept)", st.Digests)
	}
	if st.ActiveFlows != 1 {
		t.Fatalf("activeFlows=%d want 1 (only flow B remains)", st.ActiveFlows)
	}
}

// TestLiveStats exercises the mailbox stats path on a running server.
func TestLiveStats(t *testing.T) {
	trace := traffic.GenerateBenign(5, 20)
	srv, err := New(Config{
		Shards:   2,
		NewShard: testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Producer(0).IngestBatch(trace.Packets); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats() // live: answered through the mailboxes
	if st.Ingested != uint64(len(trace.Packets)) {
		t.Fatalf("live stats ingested=%d want %d", st.Ingested, len(trace.Packets))
	}
	if st.TraceElapsed <= 0 {
		t.Fatal("live stats: trace clock did not advance")
	}
	if len(st.String()) == 0 {
		t.Fatal("empty stats rendering")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayContextCancel pins Replay's cooperative cancellation: the
// decode pipeline reports the context's own error.
func TestReplayContextCancel(t *testing.T) {
	srv, err := New(Config{NewShard: testShardFactory(acceptAllFL(), 8, time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Replay(ctx, NewTraceSource(traffic.GenerateBenign(6, 5).Packets)); err != context.Canceled {
		t.Fatalf("err=%v want context.Canceled", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPcapSourceStreams round-trips a trace through the pcap writer and
// streams it back via PcapSource's batch reads.
func TestPcapSourceStreams(t *testing.T) {
	trace := traffic.GenerateBenign(7, 10)
	var buf bytes.Buffer
	w := netpkt.NewPcapWriter(&buf)
	for i := range trace.Packets {
		if err := w.WritePacket(&trace.Packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := netpkt.NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := PcapSource{R: r}
	batch := make([]netpkt.Packet, 4)
	n := 0
	for {
		k, err := src.NextBatch(batch)
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n != len(trace.Packets) {
		t.Fatalf("streamed %d packets, want %d", n, len(trace.Packets))
	}
}

// TestParseDropPolicy covers the flag parser.
func TestParseDropPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DropPolicy
		ok   bool
	}{{"block", Block, true}, {"Drop", Drop, true}, {"shed", Block, false}} {
		got, err := ParseDropPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseDropPolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if Block.String() != "block" || Drop.String() != "drop" {
		t.Error("DropPolicy.String mismatch")
	}
	if fmt.Sprint(Block) != "block" {
		t.Error("Stringer not wired")
	}
}

// TestNewValidation covers constructor errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without NewShard succeeded")
	}
	if _, err := New(Config{NewShard: func(int) Shard { return Shard{} }}); err == nil {
		t.Fatal("New with nil Switch succeeded")
	}
}
