package features

// KeyIndex is an open-addressed hash map from a canonical FlowKey to an
// int32: the exact-match table of iGuard's blacklist plane, used both
// as the switch's red-path table and as the controller's key → entry
// index. It is probed by the key's FoldCanonical value, which the
// serving path already carries with every packet, so a lookup hashes
// nothing and compares at most a few stored folds and keys.
//
// Slots are linear-probed and the table keeps its load at or below
// 1/2, doubling on the insert that would pass it; a table bounded to
// limit entries therefore peaks at 2×limit slots (rounded up to a
// power of two), which is the 2× hash-headroom SRAM charge of
// switchsim.PipelineUsage. Deletion shifts the rest of the probe run
// back instead of leaving tombstones, so churn never lengthens probes.
//
// The zero value is an empty table that owns no storage. Storage grows
// on demand and is never released, so a table allocates nothing until
// its first insert and nothing once it has reached its high-water
// mark. Every key passed in must be canonical and every fold its
// FoldCanonical value. A KeyIndex is not safe for concurrent use.
type KeyIndex struct {
	slots []keySlot
	n     int
}

// keySlot is one table cell; used marks it occupied.
type keySlot struct {
	key  FlowKey
	used bool
	fold uint32
	val  int32
}

// keyIndexMinSlots is the slot count of the first allocation.
const keyIndexMinSlots = 8

// Len returns the number of entries.
func (t *KeyIndex) Len() int { return t.n }

// Get returns key's value and whether key is present.
//
//iguard:hotpath
func (t *KeyIndex) Get(key FlowKey, fold uint32) (int32, bool) {
	i, ok := t.probe(key, fold)
	if !ok {
		return 0, false
	}
	return t.slots[i].val, true
}

// probe walks key's probe run. It returns the slot holding key and
// true, or the empty slot that ends the run and false; -1 and false
// when the table has no storage yet. The load bound guarantees an
// empty slot, so the walk terminates.
//
//iguard:hotpath
func (t *KeyIndex) probe(key FlowKey, fold uint32) (int, bool) {
	if len(t.slots) == 0 {
		return -1, false
	}
	mask := len(t.slots) - 1
	for i := int(fold) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return i, false
		}
		if s.fold == fold && s.key == key {
			return i, true
		}
	}
}

// Put maps key to val, replacing the value of a present key. When key
// is absent and the table already holds limit entries, Put refuses:
// it returns false and leaves the table unchanged.
func (t *KeyIndex) Put(key FlowKey, fold uint32, val int32, limit int) bool {
	i, ok := t.probe(key, fold)
	if ok {
		t.slots[i].val = val
		return true
	}
	if t.n >= limit {
		return false
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
		i, _ = t.probe(key, fold)
	}
	t.slots[i] = keySlot{key: key, used: true, fold: fold, val: val}
	t.n++
	return true
}

// Delete removes key, returning its value and whether it was present.
// The entries after it in the probe run move back over the hole when
// their home slot allows, so every entry stays reachable from its home
// without tombstones.
func (t *KeyIndex) Delete(key FlowKey, fold uint32) (int32, bool) {
	i, ok := t.probe(key, fold)
	if !ok {
		return 0, false
	}
	val := t.slots[i].val
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: its probe distance must reach back to i.
		home := int(t.slots[j].fold) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = keySlot{}
	t.n--
	return val, true
}

// Reset empties the table in place, keeping its storage.
func (t *KeyIndex) Reset() {
	clear(t.slots)
	t.n = 0
}

// grow doubles the slot array (or makes the first one) and reinserts
// every entry.
func (t *KeyIndex) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = keyIndexMinSlots
	}
	t.slots = make([]keySlot, size)
	mask := size - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := int(s.fold) & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
