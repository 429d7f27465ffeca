// Package controller implements iGuard's control plane: it consumes
// flow-class digests from the data plane, installs blacklist rules for
// malicious flows, and evicts old blacklist entries under FIFO or LRU
// policy when the table fills (Fig. 1 steps 10a/10b and §3.3.2
// "Controller").
//
// The flow's stateful storage is not the controller's to clear: the
// data plane zeroes it in line on the blue path, right after it emits
// the digest (Fig. 4), so a digest needs no data-plane call unless it
// installs or evicts a blacklist entry. Stats.StorageCleared still
// counts one clear per digest received — the clear the digest stands
// for.
package controller

import (
	"sync"

	"iguard/internal/features"
	"iguard/internal/switchsim"
)

// EvictionPolicy selects how blacklist entries are retired when the
// table is full.
type EvictionPolicy int

// Supported policies.
const (
	FIFO EvictionPolicy = iota
	LRU
)

// String implements fmt.Stringer.
func (p EvictionPolicy) String() string {
	if p == LRU {
		return "lru"
	}
	return "fifo"
}

// Switch is the data-plane surface the controller drives. *switchsim.
// Switch satisfies it. Every key the controller passes is canonical and
// fold is its FoldCanonical value, folded once per digest (or apply
// call) and carried with the key from then on.
type Switch interface {
	InstallBlacklist(key features.FlowKey, fold uint32) bool
	RemoveBlacklist(key features.FlowKey, fold uint32)
}

// Stats counts controller activity.
type Stats struct {
	DigestsReceived int
	BytesReceived   int
	RulesInstalled  int
	RulesEvicted    int
	RulesRemoved    int
	// StorageCleared counts one flow-storage clear per digest; the data
	// plane does the clear itself when it emits the digest.
	StorageCleared int
}

// Op classifies an observed blacklist transition.
type Op int

// Observed operations. OpInstall is a digest-driven install decided by
// this controller; OpEvict is a capacity eviction (whatever triggered
// it); OpRemove is an explicit withdrawal via Remove; OpFlush is a
// whole-table Flush (Key is the zero key).
const (
	OpInstall Op = iota
	OpEvict
	OpRemove
	OpFlush
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpInstall:
		return "install"
	case OpEvict:
		return "evict"
	case OpRemove:
		return "remove"
	case OpFlush:
		return "flush"
	}
	return "op(?)"
}

// Event is one observed blacklist transition; Key is canonical.
type Event struct {
	Op  Op
	Key features.FlowKey
}

// Controller is the control-plane agent. It is safe for concurrent use
// (digests may arrive from multiple pipelines).
//
// Locking contract: mu guards the eviction-order storage (slab, head,
// tail, free, index) and stats — exported methods acquire it around
// their bookkeeping, and methods with the *Locked suffix require it
// held. sw, capacity, and policy are set by New and never written
// afterwards, so they may be read without the lock. Data-plane calls
// (InstallBlacklist, RemoveBlacklist) are never made while
// mu is held: they dispatch through the Switch interface to an
// implementation whose latency the controller cannot bound, and
// holding mu across them would stall every other digest pipeline.
// OnDigest decides one digest's actions under mu and applies them
// after unlocking. The Switch implementation is invoked from whichever
// goroutine delivered the digest, so it must either tolerate that
// (switchsim.Switch delivers digests inline from its owning goroutine,
// which bounces these calls back onto it; see its ownership contract)
// or carry its own locks.
type Controller struct {
	mu       sync.Mutex
	sw       Switch
	capacity int
	policy   EvictionPolicy

	// The eviction order is an intrusive doubly linked list over slab
	// indices: head is the next eviction, tail the latest install (or
	// LRU refresh). index maps each tracked key to its slab entry. The
	// slab grows by append up to capacity and entries freed by eviction
	// or removal are reused through the free list (linked by next), so
	// a full table installs and evicts without allocating.
	slab       []entry
	head, tail int32
	free       int32
	index      features.KeyIndex

	stats Stats
	obs   func(Event)
}

// entry is one tracked blacklist key, its FoldCanonical value, and its
// eviction-order links. Keeping the fold lets an eviction delete its
// victim from both tables without folding it again.
type entry struct {
	key        features.FlowKey
	fold       uint32
	prev, next int32
}

// action is the data-plane work one digest or apply call decided under
// the lock: remove victim when evicted, then install key when
// installed. Keys are canonical and folds their FoldCanonical values.
type action struct {
	key, victim        features.FlowKey
	fold, victimFold   uint32
	evicted, installed bool
}

// none is the nil slab index.
const none = -1

// New returns a controller managing the given switch with a blacklist
// capacity and eviction policy. The tracking storage grows on demand.
func New(sw Switch, capacity int, policy EvictionPolicy) *Controller {
	if capacity <= 0 {
		capacity = 8192
	}
	return &Controller{
		sw:       sw,
		capacity: capacity,
		policy:   policy,
		head:     none,
		tail:     none,
		free:     none,
	}
}

// SetObserver registers an observer for blacklist transitions this
// controller performs. Events fire after the corresponding data-plane
// call, on the goroutine that triggered the transition, outside the
// controller's lock; the observer must be cheap and non-blocking (the
// serving runtime invokes it on shard goroutines). Digest-driven
// installs and evictions fire; externally applied operations (Install,
// Remove, Flush — the federation apply path) do not announce
// themselves, which is what keeps a federated fleet loop-free: only
// locally decided installs propagate outward.
func (c *Controller) SetObserver(fn func(Event)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs = fn
}

// OnDigest implements switchsim.DigestSink: it counts the digest (and
// the storage clear the data plane did with it) and, for malicious
// flows, installs a blacklist rule, evicting the oldest (FIFO) or
// least-recently-confirmed (LRU) entry when full. A benign digest, or a
// malicious one for a key already installed, makes no data-plane call.
func (c *Controller) OnDigest(d switchsim.Digest) {
	// Decide under the lock, act after it: the bookkeeping is
	// mu-guarded, but the data-plane calls are interface dispatches of
	// unbounded latency and must not extend the critical section.
	c.mu.Lock()
	a := c.digestLocked(d)
	obs := c.obs
	c.mu.Unlock()
	c.apply(a, obs, true)
}

// digestLocked is the bookkeeping of one digest: its counters and, for
// a malicious flow, the admission of its canonical key. Caller holds
// the lock.
func (c *Controller) digestLocked(d switchsim.Digest) action {
	c.stats.DigestsReceived++
	c.stats.BytesReceived += switchsim.DigestBytes
	c.stats.StorageCleared++
	if d.Label != 1 {
		return action{}
	}
	key := d.Key.Canonical()
	return c.admitLocked(key, key.FoldCanonical())
}

// apply makes a's data-plane calls — the eviction's removal, then the
// install — and then tells obs (when set) of the eviction and, when
// announce is set, of the install. Caller does not hold the lock.
func (c *Controller) apply(a action, obs func(Event), announce bool) {
	if a.evicted {
		c.sw.RemoveBlacklist(a.victim, a.victimFold)
	}
	if a.installed {
		c.sw.InstallBlacklist(a.key, a.fold)
	}
	if obs != nil {
		if a.evicted {
			obs(Event{Op: OpEvict, Key: a.victim})
		}
		if a.installed && announce {
			obs(Event{Op: OpInstall, Key: a.key})
		}
	}
}

// Install records an externally decided blacklist entry — the
// federation apply path: a rule another switch's controller installed
// and the hub propagated here. The bookkeeping is identical to a
// malicious digest (capacity evictions included, and LRU treats a
// re-install as a recency refresh) minus the digest counters, and
// the observer is deliberately not told about the install itself (see
// SetObserver) though any eviction it forces does fire OpEvict.
// Returns whether the entry was newly installed.
func (c *Controller) Install(key features.FlowKey) bool {
	key = key.Canonical()
	c.mu.Lock()
	a := c.admitLocked(key, key.FoldCanonical())
	obs := c.obs
	c.mu.Unlock()
	c.apply(a, obs, false)
	return a.installed
}

// Remove withdraws one blacklist entry from the bookkeeping and the
// data plane — the apply path for a propagated removal. Like Install
// it stays silent toward the observer. Returns whether the entry was
// present.
func (c *Controller) Remove(key features.FlowKey) bool {
	key = key.Canonical()
	fold := key.FoldCanonical()
	c.mu.Lock()
	i, ok := c.index.Delete(key, fold)
	if ok {
		c.unlinkLocked(i)
		c.releaseLocked(i)
		c.stats.RulesRemoved++
	}
	c.mu.Unlock()

	if ok {
		c.sw.RemoveBlacklist(key, fold)
	}
	return ok
}

// admitLocked is the install bookkeeping shared by OnDigest and
// Install for a canonical key and its FoldCanonical value. A tracked
// key is a recency refresh under LRU and a no-op under FIFO. A new key
// first evicts the head when the table is full, then joins at the
// tail; the caller applies the returned action after releasing the
// lock. Caller holds the lock.
func (c *Controller) admitLocked(key features.FlowKey, fold uint32) action {
	if i, ok := c.index.Get(key, fold); ok {
		if c.policy == LRU {
			c.moveToBackLocked(i)
		}
		return action{}
	}
	a := action{key: key, fold: fold, installed: true}
	if c.index.Len() >= c.capacity {
		i := c.head
		a.victim, a.victimFold, a.evicted = c.slab[i].key, c.slab[i].fold, true
		c.index.Delete(a.victim, a.victimFold)
		c.unlinkLocked(i)
		c.releaseLocked(i)
		c.stats.RulesEvicted++
	}
	i := c.free
	if i != none {
		c.free = c.slab[i].next
	} else {
		i = int32(len(c.slab))
		c.slab = append(c.slab, entry{})
	}
	c.slab[i].key, c.slab[i].fold = key, fold
	c.linkBackLocked(i)
	c.index.Put(key, fold, i, c.capacity)
	c.stats.RulesInstalled++
	return a
}

// linkBackLocked appends slab entry i to the tail of the eviction
// order. Caller holds the lock.
func (c *Controller) linkBackLocked(i int32) {
	e := &c.slab[i]
	e.prev, e.next = c.tail, none
	if c.tail == none {
		c.head = i
	} else {
		c.slab[c.tail].next = i
	}
	c.tail = i
}

// unlinkLocked detaches slab entry i from the eviction order. Caller
// holds the lock.
func (c *Controller) unlinkLocked(i int32) {
	e := &c.slab[i]
	if e.prev == none {
		c.head = e.next
	} else {
		c.slab[e.prev].next = e.next
	}
	if e.next == none {
		c.tail = e.prev
	} else {
		c.slab[e.next].prev = e.prev
	}
}

// moveToBackLocked makes slab entry i the most recent in the eviction
// order (an LRU refresh). Caller holds the lock.
func (c *Controller) moveToBackLocked(i int32) {
	if i != c.tail {
		c.unlinkLocked(i)
		c.linkBackLocked(i)
	}
}

// releaseLocked pushes the detached slab entry i onto the free list.
// Caller holds the lock.
func (c *Controller) releaseLocked(i int32) {
	c.slab[i].next = c.free
	c.free = i
}

// Flush removes every tracked blacklist entry from both the
// bookkeeping and the data plane, returning the number removed. It
// exists for model hot-swap: when a replacement model changes what
// "malicious" means, the operator may want verdicts issued under the
// old rules withdrawn rather than aging out. Removals count as
// evictions in Stats. The tracking storage is reset in place and kept.
// Like OnDigest, the data-plane calls happen after the lock is
// released.
func (c *Controller) Flush() int {
	c.mu.Lock()
	victims := make([]entry, 0, c.index.Len())
	for i := c.head; i != none; i = c.slab[i].next {
		victims = append(victims, c.slab[i])
	}
	c.slab = c.slab[:0]
	c.head, c.tail, c.free = none, none, none
	c.index.Reset()
	c.stats.RulesEvicted += len(victims)
	c.mu.Unlock()

	for _, v := range victims {
		c.sw.RemoveBlacklist(v.key, v.fold)
	}
	return len(victims)
}

// Stats returns a snapshot of controller activity.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// BlacklistLen returns the number of tracked blacklist entries.
func (c *Controller) BlacklistLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index.Len()
}
