package serve

import (
	"fmt"
	"strings"
	"time"

	"iguard/internal/controller"
	"iguard/internal/switchsim"
)

// ShardStats is one worker's snapshot: the switch's data-plane
// counters, the controller's control-plane counters, and the serve
// layer's own bookkeeping.
type ShardStats struct {
	Shard        int
	Switch       switchsim.Counters
	Controller   controller.Stats
	ActiveFlows  int
	BlacklistLen int
	AvgLatency   time.Duration
	QueueDrops   uint64
	Swaps        int
	// Batches counts batch hand-offs delivered to this shard.
	Batches uint64
}

// LaneStats is one producer lane's ingest count.
type LaneStats struct {
	Lane     uint32
	Ingested uint64
}

// Stats is the aggregated server view.
type Stats struct {
	// Shards holds the per-worker snapshots, indexed by shard id.
	Shards []ShardStats

	// Lanes holds each producer lane's accepted-packet count, indexed
	// by lane.
	Lanes []LaneStats

	// Ingested counts packets the producer lanes accepted (through
	// IngestBatch or Replay), summed across every lane; QueueDrops
	// counts the accepted packets the Drop policy then shed at
	// hand-off. Packets counts what the shards have actually processed:
	// Packets + QueueDrops == Ingested once the server has drained, and
	// less while queues or producer-side pending batches hold backlog
	// (a lane publishes its count before each hand-off and at the end
	// of each ingest call, so it is never more). Batches counts batch hand-offs across shards;
	// Packets/Batches is the realised mean batch size.
	Ingested   uint64
	QueueDrops uint64
	Packets    int
	Batches    uint64

	// PathCounts, Drops, Digests, DigestBytes, Recirculated, and
	// HardCollisions sum the switchsim counters across shards.
	PathCounts     [6]int
	Drops          int
	Digests        int
	DigestBytes    int
	Recirculated   int
	HardCollisions int

	// RulesInstalled/RulesEvicted sum the controllers' blacklist
	// activity; BlacklistLen and ActiveFlows sum current table state.
	RulesInstalled int
	RulesEvicted   int
	BlacklistLen   int
	ActiveFlows    int

	// Sweeps sums per-shard timeout sweeps; Ticks counts the sweep
	// broadcasts that triggered them. Swaps counts rule hot-swaps
	// applied per shard (every shard swaps, so this is per-shard, not
	// a sum).
	Sweeps int
	Ticks  uint64
	Swaps  int

	// TraceElapsed spans the capture timestamps observed so far: the
	// lanes publish their newest timestamp at the end of each ingest
	// call and at each sweep tick they broadcast.
	// WallElapsed spans real time since New when Config.Now was
	// provided, else zero.
	TraceElapsed time.Duration
	WallElapsed  time.Duration

	// PPS is Packets over WallElapsed (preferred) or TraceElapsed.
	PPS float64
	// AvgLatency is the packet-weighted modelled data-plane latency.
	AvgLatency time.Duration
}

// aggregate folds per-shard snapshots into the global view.
func (s *Server) aggregate(per []ShardStats) Stats {
	st := Stats{
		Shards:     per,
		Lanes:      make([]LaneStats, len(s.producers)),
		QueueDrops: s.queueDrops.Load(),
		Ticks:      s.ticks.Load(),
	}
	// Ingested sums the lanes: with multiple producers no single
	// counter sees every accepted packet, so the aggregate (and the
	// pps derived from it by callers) must fold all of them.
	for i, p := range s.producers {
		n := p.ingested.Load()
		st.Lanes[i] = LaneStats{Lane: p.lane, Ingested: n}
		st.Ingested += n
	}
	var latWeighted int64
	for _, p := range per {
		st.Packets += p.Switch.Packets
		for i, n := range p.Switch.PathCounts {
			st.PathCounts[i] += n
		}
		st.Drops += p.Switch.Drops
		st.Digests += p.Switch.Digests
		st.DigestBytes += p.Switch.DigestBytes
		st.Recirculated += p.Switch.Recirculated
		st.HardCollisions += p.Switch.HardCollisions
		st.Sweeps += p.Switch.Sweeps
		st.RulesInstalled += p.Controller.RulesInstalled
		st.RulesEvicted += p.Controller.RulesEvicted
		st.BlacklistLen += p.BlacklistLen
		st.ActiveFlows += p.ActiveFlows
		st.Batches += p.Batches
		if p.Swaps > st.Swaps {
			st.Swaps = p.Swaps
		}
		latWeighted += int64(p.AvgLatency) * int64(p.Switch.Packets)
	}
	if st.Packets > 0 {
		st.AvgLatency = time.Duration(latWeighted / int64(st.Packets))
	}
	if start, now := s.traceStart.Load(), s.traceNow.Load(); start != 0 && now > start {
		st.TraceElapsed = time.Duration(now - start)
	}
	if s.cfg.Now != nil {
		st.WallElapsed = s.cfg.Now().Sub(s.wallStart)
	}
	switch {
	case st.WallElapsed > 0:
		st.PPS = float64(st.Packets) / st.WallElapsed.Seconds()
	case st.TraceElapsed > 0:
		st.PPS = float64(st.Packets) / st.TraceElapsed.Seconds()
	}
	return st
}

// String renders a multi-line operator summary.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ingested=%d processed=%d queueDrops=%d shards=%d\n",
		st.Ingested, st.Packets, st.QueueDrops, len(st.Shards))
	if len(st.Lanes) > 1 {
		fmt.Fprintf(&b, "lanes:")
		for _, l := range st.Lanes {
			fmt.Fprintf(&b, " %d=%d", l.Lane, l.Ingested)
		}
		fmt.Fprintf(&b, "\n")
	}
	if st.Batches > 0 {
		fmt.Fprintf(&b, "batches=%d (mean size %.1f)\n", st.Batches, float64(st.Packets)/float64(st.Batches))
	}
	fmt.Fprintf(&b, "paths:")
	for p := switchsim.PathRed; p <= switchsim.PathGreen; p++ {
		fmt.Fprintf(&b, " %s=%d", p, st.PathCounts[p])
	}
	fmt.Fprintf(&b, "\ndrops=%d digests=%d (%d B) recirculated=%d hardCollisions=%d\n",
		st.Drops, st.Digests, st.DigestBytes, st.Recirculated, st.HardCollisions)
	fmt.Fprintf(&b, "blacklist: installed=%d evicted=%d resident=%d; activeFlows=%d\n",
		st.RulesInstalled, st.RulesEvicted, st.BlacklistLen, st.ActiveFlows)
	fmt.Fprintf(&b, "sweeps=%d (ticks=%d) swaps=%d\n", st.Sweeps, st.Ticks, st.Swaps)
	fmt.Fprintf(&b, "elapsed: trace=%v wall=%v; pps=%.0f; modelled latency=%v",
		st.TraceElapsed.Round(time.Millisecond), st.WallElapsed.Round(time.Millisecond), st.PPS, st.AvgLatency)
	return b.String()
}
