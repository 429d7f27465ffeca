package serve

import (
	"testing"
	"time"

	"iguard/internal/netpkt"
	"iguard/internal/switchsim"
)

// TestShardLoopAllocationFree extends switchsim's ProcessPacket pin to
// the full serving surface at BatchSize 1: one iteration ingests 64
// single-packet calls, each handed off as a batch of one, the shard
// worker decides each packet, and a stats snapshot drains the mailbox
// as a barrier — ingest→decide→stats, the same surface `iguard-vet
// -only hotpath,shardown` guards statically.
// AllocsPerRun counts mallocs process-wide, so the worker goroutine's
// allocations are in scope, not just the producer's.
func TestShardLoopAllocationFree(t *testing.T) {
	srv, err := New(Config{
		Shards:     1,
		QueueDepth: 256,
		BatchSize:  1,
		Policy:     Block,
		NewShard: func(int) Shard {
			// High threshold keeps every flow accumulating (brown path,
			// no digests), and no controller keeps the measurement on
			// the shard loop itself rather than blacklist bookkeeping.
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

	// Warm up: flow-table slots settle, the mailbox round-trips once.
	lane := srv.Producer(0)
	for i := range pkts {
		if _, _, err := lane.IngestBatch(pkts[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	drain()

	if n := testing.AllocsPerRun(200, func() {
		for i := range pkts {
			if _, _, err := lane.IngestBatch(pkts[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		drain()
	}); n != 0 {
		t.Errorf("shard loop allocs per ingest→decide→stats cycle = %v, want 0", n)
	}
}
