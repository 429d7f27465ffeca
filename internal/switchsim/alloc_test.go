package switchsim

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"iguard/internal/features"
	"iguard/internal/netpkt"
)

// TestProcessPacketAllocationFree pins the zero-allocation contract of
// the packet hot path: in steady state — brown early packets, blue
// classifications with their green recirculation, purple early
// decisions, red blacklist hits and misses, and orange collisions —
// ProcessPacket must never touch the heap. A regression here is a
// throughput regression in every serving shard, so it fails loudly
// rather than showing up only in benchmark numbers.
func TestProcessPacketAllocationFree(t *testing.T) {
	t.Run("brown-steady-state", func(t *testing.T) {
		// Threshold high enough that the flow keeps accumulating: every
		// measured packet takes the brown path.
		sw := newTestSwitch(1<<30, time.Hour)
		pkts := make([]netpkt.Packet, 64)
		for i := range pkts {
			pkts[i] = mkPkt(1, 1000, 100, time.Duration(i)*time.Millisecond)
		}
		warm := mkPkt(1, 1000, 100, 0)
		sw.ProcessPacket(&warm)
		i := 0
		if n := testing.AllocsPerRun(400, func() {
			sw.ProcessPacket(&pkts[i%len(pkts)])
			i++
		}); n != 0 {
			t.Errorf("brown-path allocs = %v, want 0", n)
		}
	})

	t.Run("blue-purple-cycle", func(t *testing.T) {
		// Threshold 2: packets alternate blue classification (digest,
		// recirculation, label write) and purple early decisions.
		sw := newTestSwitch(2, time.Hour)
		pkts := make([]netpkt.Packet, 64)
		for i := range pkts {
			pkts[i] = mkPkt(2, 2000, 100, time.Duration(i)*time.Millisecond)
		}
		warm := mkPkt(2, 2000, 100, 0)
		sw.ProcessPacket(&warm)
		sw.ProcessPacket(&warm)
		i := 0
		if n := testing.AllocsPerRun(400, func() {
			sw.ProcessPacket(&pkts[i%len(pkts)])
			i++
		}); n != 0 {
			t.Errorf("blue/purple-path allocs = %v, want 0", n)
		}
	})

	t.Run("red-blacklist", func(t *testing.T) {
		// Half the flows are blacklisted (entered in reverse direction):
		// packets alternate red-path hits and blacklist probe misses.
		sw := newTestSwitch(1<<30, time.Hour)
		pkts := make([]netpkt.Packet, 64)
		for i := range pkts {
			pkts[i] = mkPkt(byte(40+i%16), 4000, 100, time.Duration(i)*time.Millisecond)
			if i%2 == 0 {
				sw.InstallBlacklist(canon(features.KeyOf(&pkts[i]).Reverse()))
			}
		}
		for i := range pkts[:16] {
			sw.ProcessPacket(&pkts[i])
		}
		i := 0
		if n := testing.AllocsPerRun(400, func() {
			sw.ProcessPacket(&pkts[i%len(pkts)])
			i++
		}); n != 0 {
			t.Errorf("red-path allocs = %v, want 0", n)
		}
		if sw.Counters.PathCounts[PathRed] == 0 || sw.Counters.PathCounts[PathBrown] == 0 {
			t.Fatal("workload missed the red path or its misses; the assertion is vacuous")
		}
	})

	t.Run("orange-collisions", func(t *testing.T) {
		// A 1-slot table forces every distinct flow into the same two
		// candidate slots: constant collision pressure.
		sw := New(Config{
			Slots:        1,
			PktThreshold: 1 << 30,
			Timeout:      time.Hour,
			PLRules:      plRulesAllowPort(),
			FLRules:      flRulesAllowSmall(),
		})
		pkts := make([]netpkt.Packet, 64)
		for i := range pkts {
			pkts[i] = mkPkt(byte(3+i%8), uint16(3000+i%8), 100, time.Duration(i)*time.Millisecond)
		}
		for i := range pkts[:8] {
			sw.ProcessPacket(&pkts[i])
		}
		i := 0
		if n := testing.AllocsPerRun(400, func() {
			sw.ProcessPacket(&pkts[i%len(pkts)])
			i++
		}); n != 0 {
			t.Errorf("orange-path allocs = %v, want 0", n)
		}
		if sw.Counters.PathCounts[PathOrange] == 0 {
			t.Fatal("workload never hit the orange path; the assertion is vacuous")
		}
	})
}

// TestSlotLayout pins the flow-table slot at two cache lines (128 B)
// and free of pointers: a lookup touches at most two lines per table,
// and the garbage collector never has to scan the tables, however many
// slots they hold.
func TestSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 128 {
		t.Errorf("slot is %d bytes, want at most 128", n)
	}
	if path, ok := pointerFree(reflect.TypeOf(slot{}), "slot"); !ok {
		t.Errorf("slot holds a pointer at %s", path)
	}
	// The walk must see the pointer a time.Time carries (its location).
	if _, ok := pointerFree(reflect.TypeOf(time.Time{}), "time.Time"); ok {
		t.Error("pointerFree accepts time.Time")
	}
}

// pointerFree reports whether values of type t hold no pointers, and
// otherwise the path to the first field that does.
func pointerFree(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", true
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := pointerFree(f.Type, path+"."+f.Name); !ok {
				return p, false
			}
		}
		return "", true
	}
	return path + " (" + t.String() + ")", false
}
