package switchsim

import (
	"fmt"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
)

// Path enumerates the six packet-execution paths of Fig. 4.
type Path int

// The packet paths, colour-named as in the paper.
const (
	// PathRed: 5-tuple matched the blacklist; blocked immediately.
	PathRed Path = iota
	// PathBrown: 1..n-1-th packet of an unclassified flow; PL-feature
	// whitelist match only.
	PathBrown
	// PathBlue: n-th packet or timeout; PL+FL whitelist match, digest,
	// storage clear, loopback mirror.
	PathBlue
	// PathOrange: storage collision.
	PathOrange
	// PathPurple: flow already classified; early per-packet decision.
	PathPurple
	// PathGreen: recirculated loopback packet (state maintenance).
	PathGreen
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathRed:
		return "red"
	case PathBrown:
		return "brown"
	case PathBlue:
		return "blue"
	case PathOrange:
		return "orange"
	case PathPurple:
		return "purple"
	case PathGreen:
		return "green"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// Digest is the message sent to the controller when a flow's class is
// determined: the 13-byte 5-tuple plus a 1-bit label (App. B.2).
type Digest struct {
	Key   features.FlowKey
	Label int
}

// DigestBytes is the wire size of one iGuard digest (13 B 5-tuple plus
// the label bit, rounded up).
const DigestBytes = 14

// Decision reports what the pipeline did with one packet. It is a
// plain value — comparable, and free of per-packet heap allocation.
type Decision struct {
	Path      Path
	Predicted int // per-packet verdict: 0 benign, 1 malicious
	Dropped   bool
	// Recirculated is set when the packet was mirrored to the loopback
	// port (costs one extra pipeline pass).
	Recirculated bool
}

// DigestSink consumes controller digests.
type DigestSink interface {
	OnDigest(d Digest)
}

// Config parameterises the pipeline.
type Config struct {
	// Slots is the per-hash-table slot count.
	Slots int
	// PktThreshold is n: FL features are matched and storage released at
	// the n-th packet of a flow.
	PktThreshold int
	// Timeout is δ, the idle timeout releasing flow storage.
	Timeout time.Duration
	// PLRules is the early-packet whitelist over the 4 PL features
	// (§3.3.1); nil means early packets are forwarded unchecked.
	PLRules *rules.CompiledRuleSet
	// FLRules is the whitelist over the 13 FL features; nil means flows
	// are never classified in-switch.
	FLRules *rules.CompiledRuleSet
	// BlacklistCapacity bounds the blacklist exact-match table.
	BlacklistCapacity int
	// DropMalicious selects drop (true) versus forward-to-quarantine
	// (false) for packets judged malicious.
	DropMalicious bool
	// Sink receives digests (the control plane); may be nil.
	Sink DigestSink
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 4096
	}
	if c.PktThreshold <= 0 {
		c.PktThreshold = 16
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.BlacklistCapacity <= 0 {
		c.BlacklistCapacity = 8192
	}
	return c
}

// slot is one flow-state entry of a bi-hash table. It is 128 bytes —
// two cache lines, so a lookup touches at most two lines per table —
// and holds no pointers, so the garbage collector never scans the
// tables (TestSlotLayout pins both). Times are trace time in Unix
// nanoseconds (see features.FlowState).
type slot struct {
	valid bool
	// label is -1 while unclassified, else 0/1.
	label int8
	key   features.FlowKey
	state features.FlowState
	// firstPL holds the header fields behind the PL feature vector of
	// the flow's first packet, kept in metadata registers for the
	// blue-path merged-whitelist match.
	firstPL features.PLFields
	// lastSeen tracks idleness after classification too (state is
	// cleared but the label lingers until timeout).
	lastSeen int64
}

// Counters aggregates pipeline statistics.
type Counters struct {
	Packets       int
	PathCounts    [6]int
	Drops         int
	Digests       int
	DigestBytes   int
	Recirculated  int
	MirroredCPU   int
	MirroredBytes int
	// Collisions where the incoming flow could not take a slot.
	HardCollisions int
	// Sweeps counts control-plane timeout sweeps; SweepReleases the
	// slots they reclaimed.
	Sweeps        int
	SweepReleases int
	// RuleSwaps counts whitelist hot-swaps applied via SetRules.
	RuleSwaps int
}

// Switch is the simulated data plane.
//
// Ownership and clock contract: a Switch is single-goroutine. It
// carries no internal locking, by design — the hot path models a data
// plane and must not pay for synchronisation it does not need — so
// exactly one goroutine may touch a given Switch (ProcessPacket,
// SweepTimeouts, SetRules, the blacklist mutators, Counters) at a
// time. Digest delivery is synchronous: ProcessPacket and
// SweepTimeouts invoke the configured Sink inline, so a controller
// reacting to a digest calls back into the switch on the owning
// goroutine, which is what makes the controller's data-plane calls
// safe without a switch-side lock.
// Concurrent serving runs one private Switch per shard worker and
// routes every interaction — packets, timeout sweeps, rule swaps,
// stats reads — through that worker's mailbox (see internal/serve).
//
// The Switch has no clock of its own: every timeout decision derives
// from the time.Time values handed to it — packet capture timestamps
// via ProcessPacket, and explicit sweep instants via SweepTimeouts.
// Replaying the same trace therefore yields byte-identical behaviour
// regardless of wall-clock speed; live deployments thread real time in
// through the same two entry points.
type Switch struct {
	cfg       Config
	tables    [2][]slot
	seeds     [2]uint32
	blacklist features.KeyIndex
	Counters  Counters

	// flBuf is the FL-vector scratch the classify paths materialise
	// flow state into — per-switch (hence per-shard under
	// internal/serve) and safe without locking under the
	// single-goroutine ownership contract above. It is what keeps the
	// packet hot path free of heap allocation. The ownedby annotation
	// documents the contract for iguard-vet; the package declares no
	// //iguard:owner root because the owning goroutine is whichever one
	// drives this Switch (internal/serve's shard loop, a test, a replay
	// harness), so shardown arms only the escape checks here.
	//
	//iguard:ownedby(switch)
	flBuf [features.FLDim]float64
	// plBuf is the PL-vector scratch for stateless per-packet matches.
	//
	//iguard:ownedby(switch)
	plBuf [features.PLDim]float64
}

// New builds a switch from the config.
func New(cfg Config) *Switch {
	cfg = cfg.withDefaults()
	sw := &Switch{cfg: cfg, seeds: [2]uint32{0x1badb002, 0x5ca1ab1e}}
	sw.tables[0] = make([]slot, cfg.Slots)
	sw.tables[1] = make([]slot, cfg.Slots)
	return sw
}

// Config returns the active configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// SetSink attaches the digest consumer (the control plane). It exists
// because the controller needs the switch reference first.
func (sw *Switch) SetSink(sink DigestSink) { sw.cfg.Sink = sink }

// SetRules replaces the whitelist tables in one step — the hot-swap
// primitive of the model lifecycle: the control plane compiles a new
// saved model and swaps its rules into the running pipeline between
// packets, with flow state, labels, and the blacklist all surviving
// the swap (only the match tables change, as a runtime table rewrite
// would on hardware). Either set may be nil with the usual meaning
// (nil PLRules forwards early packets unchecked; nil FLRules never
// classifies in-switch). Per the ownership contract, the caller must
// be the goroutine owning the switch.
func (sw *Switch) SetRules(pl, fl *rules.CompiledRuleSet) {
	sw.cfg.PLRules = pl
	sw.cfg.FLRules = fl
	sw.Counters.RuleSwaps++
}

// InstallBlacklist adds a 5-tuple to the blacklist table (the red-path
// match). key must be canonical and fold its FoldCanonical value. It
// returns false when the table is full.
func (sw *Switch) InstallBlacklist(key features.FlowKey, fold uint32) bool {
	return sw.blacklist.Put(key, fold, 0, sw.cfg.BlacklistCapacity)
}

// RemoveBlacklist deletes a 5-tuple from the blacklist. key must be
// canonical and fold its FoldCanonical value.
func (sw *Switch) RemoveBlacklist(key features.FlowKey, fold uint32) {
	sw.blacklist.Delete(key, fold)
}

// BlacklistLen returns the current blacklist size.
func (sw *Switch) BlacklistLen() int { return sw.blacklist.Len() }

// lookup finds the resident slot for key, or a free slot; when
// candidate slots hold other flows it returns them as collision
// victims in victims[:nVictims]. The victims array is fixed-size (one
// candidate per table) so a collision never allocates. fold is
// key.Fold(), computed once by the caller and finalised here per
// table seed.
func (sw *Switch) lookup(key features.FlowKey, fold uint32) (resident *slot, free *slot, victims [2]*slot, nVictims int) {
	for ti := 0; ti < 2; ti++ {
		idx := features.IndexFold(fold, sw.seeds[ti], sw.cfg.Slots)
		s := &sw.tables[ti][idx]
		if s.valid && s.key == key {
			return s, nil, victims, 0
		}
		if !s.valid {
			if free == nil {
				free = s
			}
			continue
		}
		victims[nVictims] = s
		nVictims++
	}
	return nil, free, victims, nVictims
}

// classifyFL runs the blue-path whitelist match over a slot's flow
// state: the PL features of the flow's first packet combined with the
// FL features. The verdict is malicious when either table says so (the
// merged whitelist of §3.3.1). Both vectors materialise into the
// switch's scratch buffers, so classification is allocation-free.
func (sw *Switch) classifyFL(s *slot) int {
	verdict := 0
	if sw.cfg.FLRules != nil {
		verdict = sw.cfg.FLRules.Match(s.state.VectorInto(sw.flBuf[:]))
	}
	if verdict == 0 && sw.cfg.PLRules != nil {
		verdict = sw.cfg.PLRules.Match(s.firstPL.VectorInto(sw.plBuf[:]))
	}
	return verdict
}

// classifyPL runs the brown/orange-path PL-only match for one packet.
func (sw *Switch) classifyPL(p *netpkt.Packet) int {
	if sw.cfg.PLRules == nil {
		return 0
	}
	return sw.cfg.PLRules.Match(features.PLVectorInto(sw.plBuf[:], p))
}

// emitDigest sends the flow verdict to the controller.
func (sw *Switch) emitDigest(key features.FlowKey, label int) {
	sw.Counters.Digests++
	sw.Counters.DigestBytes += DigestBytes
	sw.notifySink(Digest{Key: key, Label: label})
}

// notifySink hands a digest to the configured DigestSink. The sink is
// the control-plane boundary: digests fire per *flow* (blue path), not
// per packet, and what a controller does with one is its own business —
// the hot-path allocation contract ends at this interface dispatch.
//
//iguard:coldpath per-flow control-plane boundary, outside the per-packet contract
func (sw *Switch) notifySink(d Digest) {
	if sw.cfg.Sink != nil {
		sw.cfg.Sink.OnDigest(d)
	}
}

// mirrorToCPU models the egress truncated-payload mirror used to update
// whitelist rules from benign traffic (§2 step 11).
func (sw *Switch) mirrorToCPU(p *netpkt.Packet) {
	sw.Counters.MirroredCPU++
	// Truncated to headers + metadata: 64 bytes.
	sw.Counters.MirroredBytes += 64
}

// ProcessPacket runs one packet through the pipeline and returns the
// decision taken. It is the per-packet hot path: iguard-vet statically
// verifies the whole call tree below it allocation-free (the runtime
// AllocsPerRun pins agree), with the digest sink as the only
// //iguard:coldpath exit.
//
//iguard:hotpath
func (sw *Switch) ProcessPacket(p *netpkt.Packet) Decision {
	key, fold := features.CanonicalFoldOf(p)
	var d Decision
	sw.processOne(p, key, fold, &d)
	return d
}

// ProcessBatch runs a batch of packets through the pipeline, writing
// each packet's decision into out (len(out) must be ≥ len(pkts)). It
// is ProcessPacket in a loop: decisions, counters and digests are
// byte-identical to calling ProcessPacket on each packet in order,
// because both run the same walk. keys[i] is pkts[i]'s canonical flow
// key and folds[i] its FoldCanonical value, both computed once by the
// caller (the serve producer needs them for shard routing anyway), so
// the switch never hashes a key twice. keys and folds must each hold
// at least len(pkts) entries. Each decision is written field by field
// into out[i] itself, overwriting every field whatever out held
// before; a decision returned by value would be built with narrow
// stores on the stack and then copied out with wide loads, which
// stalls on store forwarding once per packet. Same ownership contract
// as ProcessPacket.
//
//iguard:hotpath
func (sw *Switch) ProcessBatch(pkts []netpkt.Packet, keys []features.FlowKey, folds []uint32, out []Decision) {
	for i := range pkts {
		sw.processOne(&pkts[i], keys[i], folds[i], &out[i])
	}
}

// processOne is the pipeline walk shared by ProcessPacket and
// ProcessBatch: key is the packet's canonical flow key and fold its
// FoldCanonical value, both computed once by the caller. It zeroes *d
// first and then sets the fields the path taken decides, so no field
// keeps what *d held before.
func (sw *Switch) processOne(p *netpkt.Packet, key features.FlowKey, fold uint32, d *Decision) {
	*d = Decision{}
	sw.Counters.Packets++
	now := p.Timestamp.UnixNano()
	// Red path: blacklist match, probed with the fold the packet
	// already carries.
	if _, hit := sw.blacklist.Get(key, fold); hit {
		sw.Counters.PathCounts[PathRed]++
		sw.Counters.Drops++
		// Blacklisted flows are always blocked, independent of the
		// drop-vs-quarantine policy for whitelist misses.
		d.Path, d.Predicted, d.Dropped = PathRed, 1, true
		return
	}

	resident, free, victims, nVictims := sw.lookup(key, fold)

	if resident != nil {
		// Timeout of the resident flow itself (blue path, timeout arm).
		if resident.label == -1 && resident.state.IdleFor(now, sw.cfg.Timeout) {
			sw.bluePath(resident, p, now, true, d)
			return
		}
		if resident.label >= 0 {
			// Purple path: early decision from the flow label register.
			// Label storage itself times out to keep slots reusable.
			if time.Duration(now-resident.lastSeen) > sw.cfg.Timeout {
				*resident = slot{}
				sw.admit(p, key, resident, now, d)
				return
			}
			resident.lastSeen = now
			sw.Counters.PathCounts[PathPurple]++
			sw.decide(d, PathPurple, int(resident.label))
			return
		}
		// Accumulating flow: add the packet.
		resident.state.AddAt(p, now)
		resident.lastSeen = now
		if resident.state.Count >= sw.cfg.PktThreshold {
			sw.bluePath(resident, p, now, false, d)
			return
		}
		// Brown path: early packets, PL-only match.
		sw.Counters.PathCounts[PathBrown]++
		sw.decide(d, PathBrown, sw.classifyPL(p))
		return
	}

	if free != nil {
		sw.admit(p, key, free, now, d)
		return
	}

	// Orange path: both candidate slots occupied by other flows.
	sw.Counters.PathCounts[PathOrange]++
	// Timed-out victims are classified and evicted first.
	for _, v := range victims[:nVictims] {
		if v.label == -1 && v.state.IdleFor(now, sw.cfg.Timeout) {
			verdict := sw.classifyFL(v)
			sw.emitDigest(v.key, verdict)
			sw.Counters.Recirculated++
			*v = slot{}
			sw.admit(p, key, v, now, d)
			d.Path = PathOrange
			d.Recirculated = true
			return
		}
	}
	// A classified victim (label 0/1) is evicted: clear and re-init with
	// the incoming packet, mirror to loopback to initialise the flow ID
	// (green path), match PL features for the packet's own verdict.
	for _, v := range victims[:nVictims] {
		if v.label >= 0 {
			*v = slot{}
			sw.Counters.Recirculated++
			sw.Counters.PathCounts[PathGreen]++
			sw.admit(p, key, v, now, d)
			d.Path = PathOrange
			d.Recirculated = true
			return
		}
	}
	// All victims still collecting (label -1): the incoming flow stays
	// stateless; PL-only decision.
	sw.Counters.HardCollisions++
	sw.decide(d, PathOrange, sw.classifyPL(p))
}

// decide records a per-packet verdict taken on path into *d: the packet
// is dropped when the verdict is malicious and the policy drops
// (counted in Counters.Drops). The other fields of *d are left as they
// are.
func (sw *Switch) decide(d *Decision, path Path, verdict int) {
	d.Path = path
	d.Predicted = verdict
	d.Dropped = verdict == 1 && sw.cfg.DropMalicious
	if d.Dropped {
		sw.Counters.Drops++
	}
}

// admit initialises a slot with the packet's flow and runs the
// brown-path PL match (or blue when n == 1), writing the decision into
// *d. key is the packet's canonical flow key, computed once by
// processOne's caller and threaded through rather than re-derived per
// admission.
func (sw *Switch) admit(p *netpkt.Packet, key features.FlowKey, s *slot, now int64, d *Decision) {
	s.valid = true
	s.key = key
	s.label = -1
	s.state = features.FlowState{}
	s.firstPL = features.PLFieldsOf(p)
	s.state.AddAt(p, now)
	s.lastSeen = now
	if s.state.Count >= sw.cfg.PktThreshold {
		sw.bluePath(s, p, now, false, d)
		return
	}
	sw.Counters.PathCounts[PathBrown]++
	sw.decide(d, PathBrown, sw.classifyPL(p))
}

// bluePath classifies the flow (n-th packet or timeout), emits the
// digest, clears the stateful storage, mirrors to the loopback port to
// write the flow-label register (green path), and mirrors benign flows
// to the CPU for whitelist updates, writing the decision into *d. now
// is the packet's trace time in Unix nanoseconds.
func (sw *Switch) bluePath(s *slot, p *netpkt.Packet, now int64, timedOut bool, d *Decision) {
	sw.Counters.PathCounts[PathBlue]++
	verdict := sw.classifyFL(s)
	sw.emitDigest(s.key, verdict)
	d.Recirculated = true

	// Loopback mirror updates the flow-label register (green path).
	sw.Counters.Recirculated++
	sw.Counters.PathCounts[PathGreen]++
	s.label = int8(verdict)
	s.state = features.FlowState{}
	s.lastSeen = now

	pktVerdict := verdict
	if timedOut {
		// The packet that revealed the timeout was not part of the
		// classified window; it gets its own PL-feature verdict and the
		// flow starts accumulating again from this packet.
		pktVerdict = sw.classifyPL(p)
		s.label = -1
		s.state.AddAt(p, now)
		s.firstPL = features.PLFieldsOf(p)
		// The flow's verdict still stands via the digest.
		if verdict == 1 {
			pktVerdict = 1
		}
	}
	if verdict == 0 {
		sw.mirrorToCPU(p)
	}
	sw.decide(d, PathBlue, pktVerdict)
}

// SweepTimeouts runs the control-plane timeout sweep at the given trace
// instant: flows idle past δ are classified from their accumulated
// state (blue-path semantics, with digest and recirculation accounted),
// and idle classified labels are reclaimed so the slots become free.
func (sw *Switch) SweepTimeouts(at time.Time) {
	sw.Counters.Sweeps++
	now := at.UnixNano()
	for ti := 0; ti < 2; ti++ {
		for i := range sw.tables[ti] {
			s := &sw.tables[ti][i]
			if !s.valid {
				continue
			}
			switch {
			case s.label == -1 && s.state.IdleFor(now, sw.cfg.Timeout):
				verdict := sw.classifyFL(s)
				sw.emitDigest(s.key, verdict)
				sw.Counters.Recirculated++
				*s = slot{}
				sw.Counters.SweepReleases++
			case s.label >= 0 && time.Duration(now-s.lastSeen) > sw.cfg.Timeout:
				*s = slot{}
				sw.Counters.SweepReleases++
			}
		}
	}
}

// ActiveFlows returns the number of valid slots (classified or
// accumulating).
func (sw *Switch) ActiveFlows() int {
	n := 0
	for ti := 0; ti < 2; ti++ {
		for i := range sw.tables[ti] {
			if sw.tables[ti][i].valid {
				n++
			}
		}
	}
	return n
}

// Usage returns the structural resource consumption of this deployment.
// Whitelist tables account under nibble range encoding: one TCAM entry
// per rule at the range-encoded key width.
func (sw *Switch) Usage() Usage {
	var specs []TCAMTableSpec
	if sw.cfg.PLRules != nil {
		specs = append(specs, TCAMTableSpec{Entries: len(sw.cfg.PLRules.Rules), KeyBits: sw.cfg.PLRules.RangeKeyBits()})
	}
	if sw.cfg.FLRules != nil {
		specs = append(specs, TCAMTableSpec{Entries: len(sw.cfg.FLRules.Rules), KeyBits: sw.cfg.FLRules.RangeKeyBits()})
	}
	return PipelineUsage(sw.cfg.Slots, sw.cfg.BlacklistCapacity, specs)
}

// Latency model constants (App. B.1): one pipeline pass plus a
// recirculation penalty for mirrored packets.
const (
	basePipelineLatency = 520 * time.Nanosecond
	recircLatency       = 420 * time.Nanosecond
)

// AvgLatency returns the modelled mean per-packet latency given the
// recirculation counters accumulated so far.
func (sw *Switch) AvgLatency() time.Duration {
	if sw.Counters.Packets == 0 {
		return 0
	}
	total := int64(sw.Counters.Packets)*int64(basePipelineLatency) +
		int64(sw.Counters.Recirculated)*int64(recircLatency)
	return time.Duration(total / int64(sw.Counters.Packets))
}
