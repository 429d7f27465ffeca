package features

import (
	"math/rand"
	"testing"
)

// randomCanonicalKey draws a canonical key from r.
func randomCanonicalKey(r *rand.Rand) FlowKey {
	var k FlowKey
	r.Read(k.SrcIP[:])
	r.Read(k.DstIP[:])
	k.SrcPort = uint16(r.Intn(1 << 16))
	k.DstPort = uint16(r.Intn(1 << 16))
	k.Proto = uint8(r.Intn(256))
	return k.Canonical()
}

// keyIndexPool returns n distinct canonical keys, half of them with
// the low four fold bits all set: in tables of 8 or 16 slots those all
// share the last slot as home, so they build long probe runs that wrap
// around to slot 0 and force backward shifts across the wrap.
func keyIndexPool(seed int64, n int) []FlowKey {
	r := rand.New(rand.NewSource(seed))
	seen := map[FlowKey]bool{}
	var pool []FlowKey
	for len(pool) < n {
		k := randomCanonicalKey(r)
		if seen[k] || (len(pool)%2 == 0 && k.FoldCanonical()&15 != 15) {
			continue
		}
		seen[k] = true
		pool = append(pool, k)
	}
	return pool
}

// checkKeyIndex compares t against the reference map and checks the
// table's structural invariants: the entry count, the load bound, the
// high-water slot bound for limit, stored folds, and that every entry
// is reachable from its home slot (no hole in its probe run), which is
// what backward-shift deletion must preserve.
func checkKeyIndex(tb testing.TB, t *KeyIndex, ref map[FlowKey]int32, limit int) {
	tb.Helper()
	if t.Len() != len(ref) {
		tb.Fatalf("Len = %d, reference holds %d", t.Len(), len(ref))
	}
	if 2*t.n > len(t.slots) {
		tb.Fatalf("load %d/%d above 1/2", t.n, len(t.slots))
	}
	maxSlots := keyIndexMinSlots
	for maxSlots < 2*limit {
		maxSlots *= 2
	}
	if len(t.slots) > maxSlots {
		tb.Fatalf("%d slots for limit %d, want at most %d", len(t.slots), limit, maxSlots)
	}
	used := 0
	mask := len(t.slots) - 1
	for i, s := range t.slots {
		if !s.used {
			continue
		}
		used++
		if s.fold != s.key.FoldCanonical() {
			tb.Fatalf("slot %d stores fold %#x for a key folding to %#x", i, s.fold, s.key.FoldCanonical())
		}
		for j := int(s.fold) & mask; j != i; j = (j + 1) & mask {
			if !t.slots[j].used {
				tb.Fatalf("slot %d unreachable: hole at %d in its probe run", i, j)
			}
		}
	}
	if used != t.n {
		tb.Fatalf("%d used slots, Len %d", used, t.n)
	}
	for k, want := range ref {
		if got, ok := t.Get(k, k.FoldCanonical()); !ok || got != want {
			tb.Fatalf("Get(%v) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
}

// applyKeyIndexOp runs one op on both t and ref and checks they agree
// on its result.
func applyKeyIndexOp(tb testing.TB, t *KeyIndex, ref map[FlowKey]int32, limit, op int, k FlowKey, val int32) {
	tb.Helper()
	fold := k.FoldCanonical()
	switch op {
	case 0:
		_, present := ref[k]
		want := present || len(ref) < limit
		if got := t.Put(k, fold, val, limit); got != want {
			tb.Fatalf("Put(%v) = %v, want %v (len %d, limit %d)", k, got, want, len(ref), limit)
		}
		if want {
			ref[k] = val
		}
	case 1:
		wantVal, want := ref[k]
		if got, ok := t.Delete(k, fold); ok != want || got != wantVal {
			tb.Fatalf("Delete(%v) = %d, %v; want %d, %v", k, got, ok, wantVal, want)
		}
		delete(ref, k)
	case 2:
		wantVal, want := ref[k]
		if got, ok := t.Get(k, fold); ok != want || got != wantVal {
			tb.Fatalf("Get(%v) = %d, %v; want %d, %v", k, got, ok, wantVal, want)
		}
	default:
		t.Reset()
		clear(ref)
	}
}

// TestKeyIndexMatchesMap drives random op scripts through a KeyIndex
// and a map[FlowKey]int32 side by side. Tiny limits keep the table at
// 8–16 slots, where the colliding half of the pool wraps probe runs
// around the array end and every delete shifts entries back; a larger
// limit exercises growth through several doublings.
func TestKeyIndexMatchesMap(t *testing.T) {
	for _, limit := range []int{1, 3, 4, 7, 8, 100} {
		r := rand.New(rand.NewSource(int64(limit)))
		pool := keyIndexPool(int64(limit)+100, 2*limit+8)
		var ix KeyIndex
		ref := map[FlowKey]int32{}
		refused := 0
		for step := 0; step < 20000; step++ {
			op := r.Intn(3)
			if r.Intn(500) == 0 {
				op = 3
			}
			k := pool[r.Intn(len(pool))]
			if op == 0 && len(ref) >= limit {
				if _, present := ref[k]; !present {
					refused++
				}
			}
			applyKeyIndexOp(t, &ix, ref, limit, op, k, int32(r.Intn(1<<20)-1<<19))
			checkKeyIndex(t, &ix, ref, limit)
		}
		if refused == 0 {
			t.Errorf("limit %d: no Put was refused; the limit is untested", limit)
		}
	}
}

// TestKeyIndexZeroValueAndHighWater pins the allocation profile: the
// zero value owns no storage, a table filled to its limit peaks at
// 2×limit slots, and churn at the limit — one delete and one insert per
// step, as a full blacklist evicts and installs — allocates nothing.
func TestKeyIndexZeroValueAndHighWater(t *testing.T) {
	var ix KeyIndex
	k := randomCanonicalKey(rand.New(rand.NewSource(1)))
	if _, ok := ix.Get(k, k.FoldCanonical()); ok || ix.slots != nil {
		t.Fatal("zero-value KeyIndex is not empty and storage-free")
	}
	if _, ok := ix.Delete(k, k.FoldCanonical()); ok {
		t.Fatal("Delete found a key in the zero value")
	}
	const limit = 8192
	pool := keyIndexPool(2, 2*limit)
	for i, k := range pool[:limit] {
		if !ix.Put(k, k.FoldCanonical(), int32(i), limit) {
			t.Fatalf("Put %d refused below the limit", i)
		}
	}
	if len(ix.slots) != 2*limit {
		t.Fatalf("%d slots at the high-water mark, want %d", len(ix.slots), 2*limit)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		old, next := pool[i%len(pool)], pool[(i+limit)%len(pool)]
		ix.Delete(old, old.FoldCanonical())
		ix.Put(next, next.FoldCanonical(), int32(i), limit)
		i++
	}); n != 0 {
		t.Errorf("steady-state churn allocs = %v, want 0", n)
	}
	if ix.Len() != limit {
		t.Fatalf("Len = %d after churn, want %d", ix.Len(), limit)
	}
	ix.Reset()
	if ix.Len() != 0 || len(ix.slots) != 2*limit {
		t.Fatalf("Reset left Len %d and %d slots, want 0 and %d", ix.Len(), len(ix.slots), 2*limit)
	}
	checkKeyIndex(t, &ix, map[FlowKey]int32{}, limit)
}

// FuzzKeyIndex interprets its input as an op script over a fixed key
// pool and checks every step against a map: byte 0 picks the limit,
// then each byte pair is an op (put, delete, get, reset) and a key
// index.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 2, 0, 4, 0, 6, 1, 0, 2, 2, 0, 8})
	f.Add([]byte{1, 0, 1, 0, 3, 1, 1, 0, 3, 2, 1, 2, 3})
	f.Add([]byte{15, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 1, 2, 1, 4, 1, 6, 3, 0, 0, 9})
	pool := keyIndexPool(3, 40)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		limit := int(script[0] % 17)
		var ix KeyIndex
		ref := map[FlowKey]int32{}
		for i := 1; i+1 < len(script); i += 2 {
			op := int(script[i] % 8)
			if op > 3 {
				op %= 3 // reset stays rare
			}
			applyKeyIndexOp(t, &ix, ref, limit, op, pool[int(script[i+1])%len(pool)], int32(i))
			checkKeyIndex(t, &ix, ref, limit)
		}
	})
}
