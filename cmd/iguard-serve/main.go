// Command iguard-serve runs the sharded streaming detection runtime as
// a long-lived daemon: packets from a PCAP replay (or a synthetic
// trace) are hash-partitioned across shard workers, each owning a
// private switch+controller pair, and per-path/controller statistics
// are printed on exit.
//
// Signals drive the lifecycle: SIGINT/SIGTERM drain the shards and
// exit cleanly; SIGHUP reloads the model file given via -model and
// hot-swaps the compiled whitelist into the running shards without a
// restart.
//
// With -hub the node joins a federation: blacklist rules its own
// controllers install are announced to an iguard-hub controller plane,
// and rules announced by other nodes are applied locally, so the fleet
// converges on one blacklist view. A dead hub degrades the node to
// exactly its standalone behaviour.
//
// Usage:
//
//	iguard-serve -model model.json -replay mixed.pcap -shards 4
//	iguard-serve -train-synthetic 300 -attack "UDP DDoS" -stats-every 2s
//	iguard-serve -hub 127.0.0.1:7001 -node-id 1 -linger 30s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"iguard"
	"iguard/internal/controller"
	"iguard/internal/fed"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
	"iguard/internal/serve"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

func main() {
	var (
		modelPath  = flag.String("model", "", "detector model JSON written by iguard.(*Detector).Save (reloaded on SIGHUP)")
		replayPath = flag.String("replay", "", "PCAP trace to stream through the shards")
		trainSyn   = flag.Int("train-synthetic", 0, "train on this many synthetic benign flows instead of -model")
		attackName = flag.String("attack", "UDP DDoS", "synthetic attack mixed into the replay when no -replay PCAP is given")
		attackFl   = flag.Int("attack-flows", 40, "synthetic attack flow count")
		benignFl   = flag.Int("benign-flows", 200, "synthetic benign replay flow count")
		seed       = flag.Int64("seed", 7, "synthetic generation seed")
		shards     = flag.Int("shards", 4, "shard worker count (each owns a private switch+controller)")
		queue      = flag.Int("queue", 1024, "per-shard mailbox depth")
		dropPolicy = flag.String("drop-policy", "block", "backpressure policy: block or drop")
		sweepEvery = flag.Duration("sweep", 5*time.Second, "idle-flow sweep cadence in trace time (0 disables)")
		batchSize  = flag.Int("batch", serve.DefaultBatchSize, "per-shard hand-off batch size (1 hands every packet off alone)")
		batchFlush = flag.Duration("batch-flush", 0, "trace-time flush deadline for partial batches (0 = 1ms)")
		producers  = flag.Int("producers", 1, "ingest lane count (RSS-style; >1 replays through concurrent producer goroutines)")
		statsEvery = flag.Duration("stats-every", 0, "print live aggregate stats at this wall-clock interval (0 disables)")
		statsJSON  = flag.Bool("stats-json", false, "print the final aggregate stats as one JSON object (machine-parseable)")
		hubAddr    = flag.String("hub", "", "federation hub address; empty runs standalone")
		nodeID     = flag.Uint64("node-id", 1, "this node's federation identity (give each node a distinct ID)")
		linger     = flag.Duration("linger", 0, "keep serving this long after the replay ends (lets federated installs keep arriving)")
	)
	flag.Parse()

	policy, err := serve.ParseDropPolicy(*dropPolicy)
	if err != nil {
		fatal(err)
	}
	det := loadOrTrain(*modelPath, *trainSyn, *seed)

	var decisions atomic.Uint64
	cfg := iguard.DefaultServeConfig()
	cfg.Shards = *shards
	cfg.QueueDepth = *queue
	cfg.Policy = policy
	cfg.SweepEvery = *sweepEvery
	cfg.BatchSize = *batchSize
	cfg.BatchFlush = *batchFlush
	cfg.Producers = *producers
	cfg.OnDecision = func(int, uint32, uint64, *iguard.Packet, switchsim.Decision) {
		decisions.Add(1)
	}
	// agent is written once, before the replay producer starts; the
	// observer runs on shard goroutines whose work arrives over the
	// producer's channels, so that write happens-before every read
	// here. Only locally decided installs are announced — evictions
	// stay local, and hub-applied installs never fire this observer —
	// which is what keeps the federation loop-free.
	var agent *fed.Agent
	if *hubAddr != "" {
		cfg.OnBlacklist = func(_ int, ev controller.Event) {
			if ev.Op == controller.OpInstall {
				agent.Announce(ev.Key)
			}
		}
	}
	cfg.Now = time.Now
	srv, err := det.NewServer(cfg)
	if err != nil {
		fatal(err)
	}
	if *hubAddr != "" {
		agent, err = fed.NewAgent(fed.AgentConfig{
			Addr:   *hubAddr,
			NodeID: *nodeID,
			Apply:  srv,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		agent.Start()
		fmt.Printf("federating with hub %s as node %d\n", *hubAddr, *nodeID)
	}
	fmt.Printf("serving %d shard(s), batch=%d, producers=%d; whitelist: %s\n", srv.Shards(), *batchSize, srv.Producers(), matcherInfo(det.CompiledRules()))

	src, closer, err := openSource(*replayPath, *seed, *benignFl, *attackName, *attackFl)
	if err != nil {
		fatal(err)
	}
	defer closer()

	// The supervisor goroutine below is the only caller of Swap, Stats
	// and Close; the replay goroutine drives every ingest lane through
	// Replay. That is exactly the concurrency contract internal/serve
	// documents.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type replayResult struct {
		accepted uint64
		err      error
	}
	done := make(chan replayResult, 1)
	go func() {
		// Replay reads the source in batches on one goroutine, decode
		// workers compute keys and folds off the lanes, every lane
		// ingests concurrently, and each flushes its pending tail at
		// end of stream.
		acc, err := srv.Replay(ctx, src)
		done <- replayResult{acc, err}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	var ticker <-chan time.Time
	if *statsEvery > 0 {
		tk := time.NewTicker(*statsEvery)
		defer tk.Stop()
		ticker = tk.C
	}

	var res replayResult
	var lingerC <-chan time.Time
supervise:
	for {
		select {
		case res = <-done:
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "iguard-serve: replay done; lingering %v\n", *linger)
				lingerC = time.After(*linger)
				done = nil
				continue
			}
			break supervise
		case <-lingerC:
			break supervise
		case <-ticker:
			fmt.Printf("-- live --\n%s\n", srv.Stats())
			reportToHub(agent, srv)
		case sig := <-sigc:
			switch sig {
			case syscall.SIGHUP:
				if *modelPath == "" {
					fmt.Fprintln(os.Stderr, "iguard-serve: SIGHUP ignored: no -model file to reload")
					continue
				}
				nd, err := loadModel(*modelPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "iguard-serve: reload failed:", err)
					continue
				}
				if err := srv.Swap(nil, nd.CompiledRules()); err != nil {
					fmt.Fprintln(os.Stderr, "iguard-serve: swap failed:", err)
					continue
				}
				fmt.Fprintln(os.Stderr, "iguard-serve: model reloaded and hot-swapped; whitelist:", matcherInfo(nd.CompiledRules()))
			default:
				fmt.Fprintf(os.Stderr, "iguard-serve: %v: draining...\n", sig)
				cancel()
				if done != nil {
					res = <-done
				}
				break supervise
			}
		}
	}
	// Shutdown order matters: the agent applies into the server, so it
	// goes first — a propagated install arriving after srv.Close would
	// only tear the hub session down with an ErrClosed apply.
	if agent != nil {
		reportToHub(agent, srv)
		agent.Close()
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	// A replay cut short by our own drain signal is a clean shutdown,
	// not a failure.
	if res.err != nil && !errors.Is(res.err, context.Canceled) {
		fatal(res.err)
	}

	st := srv.Stats()
	fmt.Printf("accepted=%d dropped=%d decisions=%d\n", res.accepted, st.QueueDrops, decisions.Load())
	if *statsJSON {
		raw, err := json.Marshal(st)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
	} else {
		fmt.Println(st)
	}
	if agent != nil {
		fmt.Printf("federation: %s\n", agent.Stats())
	}
	if st.Packets == 0 {
		fatal(fmt.Errorf("no packets processed"))
	}
}

// reportToHub pushes the node's aggregate counters to the hub's fleet
// overview; a nil agent (standalone mode) is a no-op.
func reportToHub(agent *fed.Agent, srv *serve.Server) {
	if agent == nil {
		return
	}
	st := srv.Stats()
	agent.ReportStats(fed.StatsPayload{
		Packets:      uint64(st.Packets),
		Installed:    uint64(st.RulesInstalled),
		Evicted:      uint64(st.RulesEvicted),
		BlacklistLen: uint64(st.BlacklistLen),
		QueueDrops:   st.QueueDrops,
		OutboxDrops:  agent.Stats().OutboxDrops,
	})
}

// openSource builds the packet source: a streaming PCAP reader when
// -replay is given, otherwise a synthetic benign+attack mix.
func openSource(replayPath string, seed int64, benignFl int, attackName string, attackFl int) (serve.Source, func(), error) {
	if replayPath != "" {
		f, err := os.Open(replayPath)
		if err != nil {
			return nil, nil, err
		}
		r, err := netpkt.NewPcapReader(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return serve.PcapSource{R: r}, func() { f.Close() }, nil
	}
	benign := traffic.GenerateBenign(seed+1, benignFl)
	attack, err := traffic.GenerateAttack(traffic.AttackName(attackName), seed+2, attackFl)
	if err != nil {
		return nil, nil, err
	}
	return serve.NewTraceSource(benign.Merge(attack).Packets), func() {}, nil
}

// matcherInfo summarises the compiled whitelist's software match path:
// rule count, implementation (bit-vector vs linear fallback), and the
// memory the bit-vector index trades for its constant-time lookups.
func matcherInfo(c *rules.CompiledRuleSet) string {
	return fmt.Sprintf("%d rules via %s index (%.1f KiB)",
		len(c.Rules), c.MatcherKind(), float64(c.BVIndexBytes())/1024)
}

func loadModel(path string) (*iguard.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return iguard.Load(f)
}

func loadOrTrain(modelPath string, trainSyn int, seed int64) *iguard.Detector {
	if modelPath != "" {
		det, err := loadModel(modelPath)
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
	fmt.Fprintln(os.Stderr, "iguard-serve:", err)
	os.Exit(1)
}
