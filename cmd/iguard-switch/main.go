// Command iguard-switch deploys a trained iGuard model on the simulated
// programmable-switch data plane and replays a traffic trace through
// it, printing per-path packet counts, controller statistics, resource
// usage and (when ground truth is available via synthetic generation)
// per-packet detection metrics.
//
// The replay runs on the sharded serving runtime (internal/serve):
// packets are hash-partitioned by flow key across -shards workers,
// each owning a private switch+controller pair, so per-flow decisions
// are identical at any shard count.
//
// Usage:
//
//	iguard-switch -model model.json -replay mixed.pcap
//	iguard-switch -train-synthetic 400 -attack "UDP DDoS" -attack-flows 40 -shards 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"iguard"
	"iguard/internal/features"
	"iguard/internal/metrics"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
	"iguard/internal/serve"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

func main() {
	var (
		modelPath  = flag.String("model", "", "detector model JSON written by iguard.(*Detector).Save")
		replayPath = flag.String("replay", "", "PCAP trace to replay through the switch")
		trainSyn   = flag.Int("train-synthetic", 0, "train on this many synthetic benign flows instead of -model")
		attackName = flag.String("attack", "UDP DDoS", "synthetic attack mixed into the replay when no -replay PCAP is given")
		attackFl   = flag.Int("attack-flows", 40, "synthetic attack flow count")
		benignFl   = flag.Int("benign-flows", 200, "synthetic benign replay flow count")
		seed       = flag.Int64("seed", 7, "synthetic generation seed")
		shards     = flag.Int("shards", 1, "shard worker count for the replay")
		queue      = flag.Int("queue", 1024, "per-shard mailbox depth")
		dropPolicy = flag.String("drop-policy", "block", "backpressure policy: block or drop")
		batchSize  = flag.Int("batch", serve.DefaultBatchSize, "per-shard hand-off batch size (1 hands every packet off alone)")
		batchFlush = flag.Duration("batch-flush", 0, "trace-time flush deadline for partial batches, checked once per ingest call (0 = 1ms)")
		producers  = flag.Int("producers", 1, "ingest lane count (RSS-style; >1 replays through concurrent producer goroutines)")
	)
	flag.Parse()

	policy, err := serve.ParseDropPolicy(*dropPolicy)
	if err != nil {
		fatal(err)
	}
	det := loadOrTrain(*modelPath, *trainSyn, *seed)

	var packets []iguard.Packet
	var truth *traffic.Trace
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			fatal(err)
		}
		r, err := netpkt.NewPcapReader(f)
		if err != nil {
			fatal(err)
		}
		packets, err = r.ReadAll()
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		benign := traffic.GenerateBenign(*seed+1, *benignFl)
		attack, err := traffic.GenerateAttack(traffic.AttackName(*attackName), *seed+2, *attackFl)
		if err != nil {
			fatal(err)
		}
		truth = benign.Merge(attack)
		packets = truth.Packets
	}

	// OnDecision fires on shard goroutines; (lane, seq) identifies a
	// packet, with seq dense per lane over ingested packets (the Drop
	// policy leaves shed ones undecided), so each lane gets its own
	// arrays and writes land on distinct indices, visible after Close
	// (the drain is a happens-before barrier).
	nLanes := max(*producers, 1)
	preds := make([][]int, nLanes)
	truths := make([][]int, nLanes)
	decided := make([][]bool, nLanes)
	for l := range preds {
		preds[l] = make([]int, len(packets))
		truths[l] = make([]int, len(packets))
		decided[l] = make([]bool, len(packets))
	}
	cfg := iguard.DefaultServeConfig()
	cfg.Shards = *shards
	cfg.QueueDepth = *queue
	cfg.Policy = policy
	cfg.BatchSize = *batchSize
	cfg.BatchFlush = *batchFlush
	cfg.Producers = *producers
	cfg.OnDecision = func(_ int, lane uint32, seq uint64, p *iguard.Packet, d switchsim.Decision) {
		preds[lane][seq] = d.Predicted
		decided[lane][seq] = true
		if truth != nil && truth.IsMalicious(features.KeyOf(p)) {
			truths[lane][seq] = 1
		}
	}
	srv, err := det.NewServer(cfg)
	if err != nil {
		fatal(err)
	}

	if _, err := srv.Replay(context.Background(), serve.NewTraceSource(packets)); err != nil {
		fatal(err)
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	st := srv.Stats()

	fmt.Printf("replayed %d packets in %v across %d shard(s) (%.0f pkt/s simulated host rate)\n",
		st.Packets, st.WallElapsed.Round(time.Millisecond), len(st.Shards), st.PPS)
	if st.QueueDrops > 0 {
		fmt.Printf("queue drops: %d\n", st.QueueDrops)
	}
	fmt.Println("\npacket paths (Fig. 4):")
	for p := switchsim.PathRed; p <= switchsim.PathGreen; p++ {
		fmt.Printf("  %-7s %8d\n", p, st.PathCounts[p])
	}
	fmt.Printf("\ndrops=%d digests=%d (%d B) recirculated=%d hardCollisions=%d\n",
		st.Drops, st.Digests, st.DigestBytes, st.Recirculated, st.HardCollisions)
	fmt.Printf("controller: digests=%d installed=%d evicted=%d\n",
		st.Digests, st.RulesInstalled, st.RulesEvicted)
	fmt.Printf("blacklist size: %d\n", st.BlacklistLen)
	fmt.Printf("modelled per-packet latency: %v\n", st.AvgLatency)
	fmt.Printf("\nresources (per shard): %s\n", shardUsage(det).Fractions(switchsim.Tofino1Budget()))
	fmt.Printf("whitelist matcher: %s\n", matcherInfo(det.CompiledRules()))

	if truth != nil {
		// Score only the decided packets of each lane's dense prefix
		// (Stats reports per-lane ingest counts): a shed packet has no
		// prediction. The per-packet metrics are order-invariant, so
		// lane concatenation order does not matter.
		var flatScores []float64
		var flatPreds, flatTruths []int
		for _, l := range st.Lanes {
			for seq, ok := range decided[l.Lane][:l.Ingested] {
				if ok {
					flatScores = append(flatScores, float64(preds[l.Lane][seq]))
					flatPreds = append(flatPreds, preds[l.Lane][seq])
					flatTruths = append(flatTruths, truths[l.Lane][seq])
				}
			}
		}
		s := metrics.Evaluate(flatScores, flatPreds, flatTruths)
		fmt.Printf("\nper-packet detection: macroF1=%.3f PRAUC=%.3f ROCAUC=%.3f\n", s.MacroF1, s.PRAUC, s.ROCAUC)
	}
}

// matcherInfo summarises the compiled whitelist's software match path:
// rule count, implementation (bit-vector vs linear fallback), and the
// memory the bit-vector index trades for its constant-time lookups.
func matcherInfo(c *rules.CompiledRuleSet) string {
	return fmt.Sprintf("%d rules via %s index (%.1f KiB)",
		len(c.Rules), c.MatcherKind(), float64(c.BVIndexBytes())/1024)
}

// shardUsage reports the resource footprint of one shard's switch —
// every shard is configured identically, so one is representative.
func shardUsage(det *iguard.Detector) switchsim.Usage {
	dep, err := det.NewDeployment(iguard.DefaultDeployConfig())
	if err != nil {
		fatal(err)
	}
	defer dep.Close()
	return dep.Switch.Usage()
}

func loadOrTrain(modelPath string, trainSyn int, seed int64) *iguard.Detector {
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		det, err := iguard.Load(f)
		if err != nil {
			fatal(err)
		}
		return det
	}
	if trainSyn <= 0 {
		trainSyn = 300
	}
	fmt.Printf("training on %d synthetic benign flows...\n", trainSyn)
	cfg := iguard.DefaultConfig()
	cfg.Seed = seed
	det, err := iguard.Train(traffic.GenerateBenign(seed, trainSyn).Packets, cfg)
	if err != nil {
		fatal(err)
	}
	return det
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iguard-switch:", err)
	os.Exit(1)
}
