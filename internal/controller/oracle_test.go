package controller

import (
	"container/list"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"iguard/internal/features"
	"iguard/internal/switchsim"
)

// listController is the reference model for Controller: the earlier
// implementation, whose eviction order is a container/list with a
// map[FlowKey]*list.Element index. The differential test below requires
// Controller to match it operation for operation.
type listController struct {
	mu       sync.Mutex
	sw       Switch
	capacity int
	policy   EvictionPolicy
	order    *list.List // of features.FlowKey, front = next eviction
	index    map[features.FlowKey]*list.Element
	stats    Stats
	obs      func(Event)
}

func newListController(sw Switch, capacity int, policy EvictionPolicy) *listController {
	if capacity <= 0 {
		capacity = 8192
	}
	return &listController{
		sw:       sw,
		capacity: capacity,
		policy:   policy,
		order:    list.New(),
		index:    map[features.FlowKey]*list.Element{},
	}
}

func (c *listController) SetObserver(fn func(Event)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs = fn
}

func (c *listController) OnDigest(d switchsim.Digest) {
	key := d.Key.Canonical()
	c.mu.Lock()
	c.stats.DigestsReceived++
	c.stats.BytesReceived += switchsim.DigestBytes
	c.stats.StorageCleared++
	install := false
	var evicted []features.FlowKey
	if d.Label == 1 {
		if el, ok := c.index[key]; ok {
			if c.policy == LRU {
				c.order.MoveToBack(el)
			}
		} else {
			if c.order.Len() >= c.capacity {
				if victim, ok := c.popVictimLocked(); ok {
					evicted = append(evicted, victim)
					c.stats.RulesEvicted++
				}
			}
			c.index[key] = c.order.PushBack(key)
			c.stats.RulesInstalled++
			install = true
		}
	}
	obs := c.obs
	c.mu.Unlock()

	for _, victim := range evicted {
		c.sw.RemoveBlacklist(victim, victim.FoldCanonical())
	}
	if install {
		c.sw.InstallBlacklist(key, key.FoldCanonical())
	}
	if obs != nil {
		for _, victim := range evicted {
			obs(Event{Op: OpEvict, Key: victim})
		}
		if install {
			obs(Event{Op: OpInstall, Key: key})
		}
	}
}

func (c *listController) Install(key features.FlowKey) bool {
	key = key.Canonical()
	c.mu.Lock()
	install := false
	var evicted []features.FlowKey
	if el, ok := c.index[key]; ok {
		if c.policy == LRU {
			c.order.MoveToBack(el)
		}
	} else {
		if c.order.Len() >= c.capacity {
			if victim, ok := c.popVictimLocked(); ok {
				evicted = append(evicted, victim)
				c.stats.RulesEvicted++
			}
		}
		c.index[key] = c.order.PushBack(key)
		c.stats.RulesInstalled++
		install = true
	}
	obs := c.obs
	c.mu.Unlock()

	for _, victim := range evicted {
		c.sw.RemoveBlacklist(victim, victim.FoldCanonical())
	}
	if install {
		c.sw.InstallBlacklist(key, key.FoldCanonical())
	}
	if obs != nil {
		for _, victim := range evicted {
			obs(Event{Op: OpEvict, Key: victim})
		}
	}
	return install
}

func (c *listController) Remove(key features.FlowKey) bool {
	key = key.Canonical()
	c.mu.Lock()
	el, ok := c.index[key]
	if ok {
		c.order.Remove(el)
		delete(c.index, key)
		c.stats.RulesRemoved++
	}
	c.mu.Unlock()

	if ok {
		c.sw.RemoveBlacklist(key, key.FoldCanonical())
	}
	return ok
}

func (c *listController) popVictimLocked() (features.FlowKey, bool) {
	front := c.order.Front()
	if front == nil {
		return features.FlowKey{}, false
	}
	key := front.Value.(features.FlowKey)
	c.order.Remove(front)
	delete(c.index, key)
	return key, true
}

func (c *listController) Flush() int {
	c.mu.Lock()
	victims := make([]features.FlowKey, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		victims = append(victims, el.Value.(features.FlowKey))
	}
	c.order.Init()
	c.index = map[features.FlowKey]*list.Element{}
	c.stats.RulesEvicted += len(victims)
	c.mu.Unlock()

	for _, v := range victims {
		c.sw.RemoveBlacklist(v, v.FoldCanonical())
	}
	return len(victims)
}

func (c *listController) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *listController) BlacklistLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// blacklistPlane is the method set the differential test drives on
// both implementations.
type blacklistPlane interface {
	switchsim.DigestSink
	SetObserver(func(Event))
	Install(features.FlowKey) bool
	Remove(features.FlowKey) bool
	Flush() int
	Stats() Stats
	BlacklistLen() int
}

// recordingSwitch logs every data-plane call in order, with the key
// exactly as passed (and a mark when the key is not canonical or the
// fold not its FoldCanonical value), and keeps the blacklist contents
// those calls leave.
type recordingSwitch struct {
	log []string
	set map[features.FlowKey]bool
}

func (r *recordingSwitch) call(op string, k features.FlowKey, fold uint32) {
	if k != k.Canonical() || fold != k.FoldCanonical() {
		op += " (bad key or fold)"
	}
	r.log = append(r.log, op+" "+k.String())
}

func (r *recordingSwitch) InstallBlacklist(k features.FlowKey, fold uint32) bool {
	r.call("install", k, fold)
	if r.set == nil {
		r.set = map[features.FlowKey]bool{}
	}
	r.set[k] = true
	return true
}

func (r *recordingSwitch) RemoveBlacklist(k features.FlowKey, fold uint32) {
	r.call("remove", k, fold)
	delete(r.set, k)
}

// TestControllerMatchesListOracle runs random scripts of OnDigest,
// Install, Remove and Flush through Controller and the container/list
// reference under both policies and several capacities. Keys arrive in
// either direction. After every step the two must agree on the step's
// return value, must have issued the same data-plane calls and fired
// the same observer events during it, and must report the same Stats,
// BlacklistLen and switch blacklist contents.
func TestControllerMatchesListOracle(t *testing.T) {
	for _, policy := range []EvictionPolicy{FIFO, LRU} {
		for _, capacity := range []int{1, 2, 3, 5, 16} {
			t.Run(fmt.Sprintf("%v/cap=%d", policy, capacity), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(capacity)*10 + int64(policy)))
				var gotSw, wantSw recordingSwitch
				var gotEv, wantEv []Event
				got := blacklistPlane(New(&gotSw, capacity, policy))
				want := blacklistPlane(newListController(&wantSw, capacity, policy))
				got.SetObserver(func(e Event) { gotEv = append(gotEv, e) })
				want.SetObserver(func(e Event) { wantEv = append(wantEv, e) })
				nkeys := 3*capacity + 2
				for step := 0; step < 4000; step++ {
					k := key(byte(r.Intn(nkeys)))
					if r.Intn(2) == 0 {
						k = k.Reverse()
					}
					var op string
					var g, w any
					switch n := r.Intn(100); {
					case n < 55:
						d := switchsim.Digest{Key: k, Label: 1}
						if r.Intn(4) == 0 {
							d.Label = 0
						}
						op = fmt.Sprintf("OnDigest(%v, %d)", k, d.Label)
						got.OnDigest(d)
						want.OnDigest(d)
					case n < 80:
						op = fmt.Sprintf("Install(%v)", k)
						g, w = got.Install(k), want.Install(k)
					case n < 98:
						op = fmt.Sprintf("Remove(%v)", k)
						g, w = got.Remove(k), want.Remove(k)
					default:
						op = "Flush()"
						g, w = got.Flush(), want.Flush()
					}
					if g != w {
						t.Fatalf("step %d %s returned %v, oracle %v", step, op, g, w)
					}
					if !reflect.DeepEqual(gotSw.log, wantSw.log) {
						t.Fatalf("step %d %s: data-plane calls diverge:\n got %v\nwant %v", step, op, gotSw.log, wantSw.log)
					}
					if !reflect.DeepEqual(gotEv, wantEv) {
						t.Fatalf("step %d %s: observer events diverge:\n got %v\nwant %v", step, op, gotEv, wantEv)
					}
					if gs, ws := got.Stats(), want.Stats(); gs != ws {
						t.Fatalf("step %d %s: Stats %+v, oracle %+v", step, op, gs, ws)
					}
					if gl, wl := got.BlacklistLen(), want.BlacklistLen(); gl != wl {
						t.Fatalf("step %d %s: BlacklistLen %d, oracle %d", step, op, gl, wl)
					}
					if !maps.Equal(gotSw.set, wantSw.set) {
						t.Fatalf("step %d %s: switch blacklist %v, oracle %v", step, op, gotSw.set, wantSw.set)
					}
					gotSw.log, wantSw.log, gotEv, wantEv = gotSw.log[:0], wantSw.log[:0], gotEv[:0], wantEv[:0]
				}
				if st := want.Stats(); st.RulesEvicted == 0 || st.RulesRemoved == 0 {
					t.Fatalf("script never evicted or removed (%+v); the comparison is vacuous", st)
				}
			})
		}
	}
}
