package serve

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"iguard/internal/controller"
	"iguard/internal/switchsim"
)

// TestStatsJSONStable pins the exact bytes of the machine-parseable
// stats encoding. A failure here means a JSON key changed — which
// breaks every consumer of `-stats-json` output — so the fix is almost
// never to update the expectation casually: it is an interface.
func TestStatsJSONStable(t *testing.T) {
	st := Stats{
		Shards: []ShardStats{{
			Shard: 1,
			Switch: switchsim.Counters{
				Packets:        100,
				PathCounts:     [6]int{1, 2, 3, 4, 5, 6},
				Drops:          7,
				Digests:        8,
				DigestBytes:    88,
				Recirculated:   9,
				HardCollisions: 2,
				Sweeps:         3,
			},
			Controller: controller.Stats{
				RulesInstalled: 11,
				RulesEvicted:   4,
				RulesRemoved:   2,
				StorageCleared: 12,
			},
			ActiveFlows:  21,
			BlacklistLen: 9,
			AvgLatency:   1500 * time.Nanosecond,
			QueueDrops:   5,
			Swaps:        1,
			Batches:      50,
		}},
		Lanes:          []LaneStats{{Lane: 0, Ingested: 60}, {Lane: 1, Ingested: 45}},
		Ingested:       105,
		QueueDrops:     5,
		Packets:        100,
		Batches:        50,
		PathCounts:     [6]int{1, 2, 3, 4, 5, 6},
		Drops:          7,
		Digests:        8,
		DigestBytes:    88,
		Recirculated:   9,
		HardCollisions: 2,
		RulesInstalled: 11,
		RulesEvicted:   4,
		BlacklistLen:   9,
		ActiveFlows:    21,
		Sweeps:         3,
		Ticks:          6,
		Swaps:          1,
		TraceElapsed:   2 * time.Second,
		WallElapsed:    time.Second,
		PPS:            100,
		AvgLatency:     1500 * time.Nanosecond,
	}
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ingested":105,"queue_drops":5,"packets":100,"batches":50,` +
		`"path_counts":[1,2,3,4,5,6],"drops":7,"digests":8,"digest_bytes":88,` +
		`"recirculated":9,"hard_collisions":2,"rules_installed":11,"rules_evicted":4,` +
		`"blacklist_len":9,"active_flows":21,"sweeps":3,"ticks":6,"swaps":1,` +
		`"trace_elapsed_ns":2000000000,"wall_elapsed_ns":1000000000,"pps":100,` +
		`"avg_latency_ns":1500,` +
		`"lanes":[{"lane":0,"ingested":60},{"lane":1,"ingested":45}],"shards":[` +
		`{"shard":1,"packets":100,"path_counts":[1,2,3,4,5,6],"drops":7,"digests":8,` +
		`"digest_bytes":88,"recirculated":9,"hard_collisions":2,"sweeps":3,` +
		`"rules_installed":11,"rules_evicted":4,"rules_removed":2,"storage_cleared":12,` +
		`"active_flows":21,"blacklist_len":9,"avg_latency_ns":1500,"queue_drops":5,` +
		`"swaps":1,"batches":50}]}`
	if string(got) != want {
		t.Fatalf("stats JSON changed:\n got %s\nwant %s", got, want)
	}
}

// TestStatsJSONFromLiveServer checks the encoding round-trips through
// a real server's snapshot (no marshal errors, parseable, and the
// headline counters agree with the struct).
func TestStatsJSONFromLiveServer(t *testing.T) {
	srv, err := New(Config{
		Shards:   2,
		NewShard: testShardFactory(acceptAllFL(), 8, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	trace := mixedTrace(t)
	if _, err := srv.Replay(context.Background(), NewTraceSource(trace.Packets)); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unparseable stats JSON: %v\n%s", err, raw)
	}
	if got := int(back["packets"].(float64)); got != st.Packets {
		t.Fatalf("packets=%d in JSON, %d in struct", got, st.Packets)
	}
	shards, ok := back["shards"].([]any)
	if !ok || len(shards) != 2 {
		t.Fatalf("shards in JSON = %v, want 2 entries", back["shards"])
	}
}
