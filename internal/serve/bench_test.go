package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"iguard/internal/controller"
	"iguard/internal/features"
	"iguard/internal/mathx"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

// benchPLRules builds a deep PL whitelist (many narrow boxes) so each
// brown-path packet pays a realistic multi-rule TCAM scan — the per-
// packet work that sharding parallelises.
func benchPLRules(count int) *rules.CompiledRuleSet {
	min := []float64{0, 0, 0, 0}
	max := []float64{65535, 255, 2000, 255}
	r := mathx.NewRand(42)
	rs := &rules.RuleSet{Dim: features.PLDim, DefaultLabel: 1}
	for i := 0; i < count; i++ {
		box := make(rules.Box, features.PLDim)
		for d := range box {
			lo := r.Float64() * max[d] * 0.9
			box[d] = rules.Interval{Lo: lo, Hi: lo + 0.02*max[d]}
		}
		rs.Rules = append(rs.Rules, rules.Rule{Box: box, Label: 0})
	}
	return rules.Compile(rs, rules.NewQuantizer(min, max, 12))
}

// benchShardFactory keeps flows below the packet threshold so every
// packet takes the brown path: a steady-state filtering workload.
func benchShardFactory(pl *rules.CompiledRuleSet) func(int) Shard {
	return func(int) Shard {
		sw := switchsim.New(switchsim.Config{
			Slots:        1 << 14,
			PktThreshold: 1 << 30,
			Timeout:      time.Hour,
			PLRules:      pl,
		})
		ctrl := controller.New(sw, 8192, controller.FIFO)
		sw.SetSink(ctrl)
		return Shard{Switch: sw, Controller: ctrl}
	}
}

// benchPackets returns a reusable synthetic workload.
func benchPackets(b *testing.B) []netpkt.Packet {
	b.Helper()
	attack, err := traffic.GenerateAttack(traffic.UDPDDoS, 2, 64)
	if err != nil {
		b.Fatal(err)
	}
	return traffic.GenerateBenign(1, 256).Merge(attack).Packets
}

// BenchmarkProcessPacket measures the single-switch hot path in
// isolation — the per-shard cost that BenchmarkServeThroughput divides
// across workers. Tracked separately so a hot-path regression is not
// masked by shard scaling (and vice versa).
func BenchmarkProcessPacket(b *testing.B) {
	pkts := benchPackets(b)
	sh := benchShardFactory(benchPLRules(256))(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh.Switch.ProcessPacket(&pkts[i%len(pkts)])
	}
}

// BenchmarkProcessBatch measures the switch batch pass on the same
// workload as BenchmarkProcessPacket: ns/op is per packet, so the
// delta against BenchmarkProcessPacket is what the shared quantise
// pass and feature-major rule walk save before any shard fan-out.
func BenchmarkProcessBatch(b *testing.B) {
	pkts := benchPackets(b)
	sh := benchShardFactory(benchPLRules(256))(0)
	const batch = 64
	out := make([]switchsim.Decision, batch)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		off := i % (len(pkts) - batch)
		sh.Switch.ProcessBatch(pkts[off:off+batch], nil, nil, out)
	}
}

// sparseGap is the trace-time spacing of the sparse serve benchmark
// cases: a 64-packet ingest call spans 6.4ms, about six default 1ms
// BatchFlush intervals, like a chunk of a replayed capture.
const sparseGap = 100 * time.Microsecond

// BenchmarkServeThroughput measures end-to-end ingest→decision packet
// rate across shard counts on the same synthetic workload (ns/op is
// per packet, drain included), driving the face the daemons use:
// IngestBatch in 64-packet slices, over a BatchSize-64 server for the
// shards=N and sparse/shards=N cases and a BatchSize-1 server for the
// batch=1/shards=N cases, where every packet is its own hand-off. On
// a multi-core host the 4-shard run should sustain at least twice the
// 1-shard pps; on a single core the shard counts only measure the
// runtime's overhead. The dense cases keep the trace's own timestamps,
// whose clock stops advancing once the loop wraps, so batches hand off
// full; the sparse/ cases restamp packet i at i×sparseGap, so every
// call crosses the BatchFlush deadline as replayed captures do (the
// restamping copy is part of their timed loop). pkts/batch is the mean
// fill of a handed-off batch.
func BenchmarkServeThroughput(b *testing.B) {
	pkts := benchPackets(b)
	pl := benchPLRules(256)
	const chunkLen = 64
	for _, c := range []struct {
		prefix string
		batch  int
		sparse bool
	}{{"", 64, false}, {"sparse/", 64, true}, {"batch=1/", 1, false}} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sshards=%d", c.prefix, shards), func(b *testing.B) {
				srv, err := New(Config{
					Shards:     shards,
					QueueDepth: 1024,
					Policy:     Block,
					BatchSize:  c.batch,
					NewShard:   benchShardFactory(pl),
				})
				if err != nil {
					b.Fatal(err)
				}
				lane := srv.Producer(0)
				buf := make([]netpkt.Packet, chunkLen)
				b.ResetTimer()
				b.ReportAllocs()
				for n := 0; n < b.N; {
					off := n % (len(pkts) - chunkLen)
					chunk := chunkLen
					if rem := b.N - n; rem < chunk {
						chunk = rem
					}
					in := pkts[off : off+chunk]
					if c.sparse {
						in = buf[:copy(buf, in)]
						for i := range in {
							in[i].Timestamp = pkts[0].Timestamp.Add(time.Duration(n+i) * sparseGap)
						}
					}
					if _, _, err := lane.IngestBatch(in); err != nil {
						b.Fatal(err)
					}
					n += chunk
				}
				if err := lane.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st := srv.Stats()
				if st.Packets != b.N {
					b.Fatalf("processed %d packets, want %d", st.Packets, b.N)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
				b.ReportMetric(float64(st.Packets)/float64(st.Batches), "pkts/batch")
			})
		}
	}
}

// BenchmarkServeThroughputMP measures the multi-producer ingest fan-in:
// P concurrent lanes split the packet budget and drive their own
// IngestBatch loops against a 4-shard batched server, so ns/op is per
// packet wall-clock across the whole fan-in (drain included) and the
// reported pps is the end-to-end rate. producers=1 is the lane
// machinery at single-producer cost (the regression guard against
// BenchmarkServeThroughput/shards=4); higher lane counts only scale on
// multi-core hosts — sweep with -cpu 1,4,8 to see the machine's
// scaling curve, since on one core extra lanes measure pure contention
// overhead.
func BenchmarkServeThroughputMP(b *testing.B) {
	pkts := benchPackets(b)
	pl := benchPLRules(256)
	const batch = 64
	const shards = 4
	for _, producers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			srv, err := New(Config{
				Shards:     shards,
				QueueDepth: 1024,
				Policy:     Block,
				BatchSize:  batch,
				Producers:  producers,
				NewShard:   benchShardFactory(pl),
			})
			if err != nil {
				b.Fatal(err)
			}
			// Pre-split the budget so the timed region is pure ingest:
			// lane l sends share[l] packets in batch-sized slices.
			share := make([]int, producers)
			for i := 0; i < producers; i++ {
				share[i] = b.N / producers
			}
			share[0] += b.N % producers
			b.ResetTimer()
			b.ReportAllocs()
			var wg sync.WaitGroup
			for l := 0; l < producers; l++ {
				wg.Add(1)
				go func(p *Producer, budget int) {
					defer wg.Done()
					for n := 0; n < budget; {
						off := n % (len(pkts) - batch)
						chunk := batch
						if rem := budget - n; rem < chunk {
							chunk = rem
						}
						if _, _, err := p.IngestBatch(pkts[off : off+chunk]); err != nil {
							b.Error(err)
							return
						}
						n += chunk
					}
					if err := p.Flush(); err != nil {
						b.Error(err)
					}
				}(srv.Producer(l), share[l])
			}
			wg.Wait()
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := srv.Stats()
			if st.Packets != b.N {
				b.Fatalf("processed %d packets, want %d", st.Packets, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
		})
	}
}
